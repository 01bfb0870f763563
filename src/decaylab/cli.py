"""Command-line harness: every check in the package as a subcommand.

Each command writes the tables behind its report as CSV and an SVG plot
where a curve is meaningful, all under --out; main then writes the report
there as report.json (strict JSON, sorted keys, non-finite values as null)
and prints the same text.  The process exits 0 when the report passes, 1
when it completes but fails, and 2 on invalid input, printing a
machine-readable error object in the last case.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .cauchy import (
    ConjugatedGenerator,
    conjugated_min_eig,
    estimate_loss_delta,
    gronwall_check,
    solve,
    solve_conjugated,
)
from .examples import _family, example1, example2, example3, hypothesis_check, residual_check
from .grid import Grid, StateVector, sample
from .gsnorm import GsIndices, norm_box_sweep
from .pdo import WeightPair, _check_eig_size, conjugation_remainder_check
# unused; bench/tracing.py patches them here until its span list drops them (ROADMAP item 1)
from .pdo import assemble_dense, hermitian_min_eig, inverse  # noqa: F401
from .svgplot import line_plot_svg
from .symbol import ConjugationSchedule, LambdaParams, c_of_lambda, lambda_on_grid, lambda_sym, transport_sign_check

__all__ = ["main"]


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with usage text
        raise _CliError(message)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_plot(path: Path, series: dict[str, list[tuple[float, float]]], *, title: str, xlabel: str, ylabel: str, logy: bool = False) -> None:
    """Write the plot atomically."""
    _write_text(path, line_plot_svg(series, title=title, xlabel=xlabel, ylabel=ylabel, logy=logy))


def _plot_trace(path: Path, trace, title: str) -> None:
    """Plot each traced norm against t.  A run that aborts on its first step
    leaves one sample, which draws no curve: it gets no plot."""
    if len(trace.times) > 1:
        series = {lab: list(zip(trace.times, trace.columns[lab])) for lab in trace.labels}
        emit_plot(path, series, title=title, xlabel="t", ylabel="norm")


def _strict(obj):
    """obj with each non-finite float as None, for strict JSON; the report
    says why beside it (abort_reason, an overflow flag)."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _fmt_cell(v) -> str:
    if type(v) is float:  # most cells; np.float64 and bool take the branches below
        return repr(v)
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(c) for c in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _parse_floats(text: str) -> list[float]:
    vals = [float(v) for v in text.split(",") if v.strip() != ""]
    if not vals:
        raise ValueError(f"empty list: {text!r}")
    return vals


def _parse_sweep(text: str, flag: str) -> list[float]:
    """The values of a sweep flag, refused before any work when fewer than
    two: a one-point sweep has no trend to report or plot."""
    vals = _parse_floats(text)
    if len(vals) < 2:
        raise _CliError(f"{flag} needs at least two values, got {text!r}")
    return vals


def _parse_indices(text: str) -> list[GsIndices]:
    out = []
    for part in text.split(";"):
        vals = _parse_floats(part)
        if len(vals) == 4:
            vals = vals + [2.0, 2.0]
        if len(vals) != 6:
            raise ValueError(f"indices need 4 or 6 numbers, got {part!r}")
        out.append(GsIndices(*vals))
    return out


# the half box when neither flag nor config sets L: criterion 2's, except
# for example 2, whose state e^(-(1-t) <x>^(1/2)) is still 0.07 of its
# peak at the edge of L=40 by t=1/2
_SOLVE_HALF_BOX = {1: 40.0, 2: 80.0, 3: 40.0}

_SOLVE_DEFAULTS = {
    "example": None,
    "sigma": 0.5,
    "s": 1.8,
    "n": 1024,
    "L": None,
    "dt": 1e-3,
    "T": 0.5,
    "method": "krylov",
    "tol": 1e-3,
    "indices": None,
}


def _resolve_solve_options(args) -> None:
    """Settle each solve option: the flag if given, else the --config file's
    value, else _SOLVE_DEFAULTS.  The flags default to None, so a flag that
    repeats a default still wins over the file.  A missing or malformed
    file, and a value its flag would not accept, are input errors."""
    cfg = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise FileNotFoundError(f"config file not found: {args.config}")
        cfg = json.loads(path.read_text())
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(cfg) - set(_SOLVE_DEFAULTS))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
    for key, default in _SOLVE_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, _config_value(args.solve_flags[key], cfg[key]) if key in cfg else default)


def _config_value(flag: argparse.Action, value):
    """A config value as its flag parses it: the flag's type applied to the
    value's text (a JSON number's as written), then the flag's choices."""
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        out = text if flag.type is None else flag.type(text)
    except ValueError:
        raise ValueError(f"config key {flag.dest!r}: invalid {flag.type.__name__} value {value!r}") from None
    if flag.choices is not None and out not in flag.choices:
        raise ValueError(f"config key {flag.dest!r}: {value!r} is not one of {list(flag.choices)}")
    return out


def _pick_example(eid: int, sigma: float, s: float, T: float):
    if eid == 1:
        return example1(sigma, s, T=T)
    if eid == 2:
        return example2(sigma, T=T)
    if eid == 3:
        return example3(sigma, s, T=T)
    raise ValueError(f"example id must be 1, 2, or 3, got {eid}")


def _schedule(M: float, N: float, T: float, k0) -> ConjugationSchedule:
    if k0 in (None, "auto"):
        k0 = (M + 1.0) * float(np.expm1(N * T))
    return ConjugationSchedule(k0=float(k0), Nconst=N, T=T, M=M)


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(args, out: Path) -> dict:
    _resolve_solve_options(args)
    if args.example is None:
        raise ValueError("an example id is required (--example or a config file)")
    ep = _pick_example(args.example, args.sigma, args.s, args.T)
    grid = Grid(dim=1, n=args.n, L=_SOLVE_HALF_BOX[args.example] if args.L is None else args.L)
    idx = _parse_indices(args.indices) if args.indices else [GsIndices(0, 0, 0, 0, 2.0, 2.0)]
    res = solve(ep.problem, grid, args.dt, indices=idx, method=args.method)
    exact = ep.u_exact(args.T, grid.x)
    err = float(np.max(np.abs(res.u.values - exact))) if not res.report["aborted"] else float("inf")
    report = dict(res.report)
    report.update(
        {
            "example": args.example,
            "sigma": args.sigma,
            "s": ep.problem.s0,
            "linf_error": err,
            "tol": args.tol,
            "pass": (not res.report["aborted"]) and err <= args.tol,
        }
    )
    _write_csv(out / "trace.csv", res.trace.header(), res.trace.rows())
    _write_csv(
        out / "final_state.csv",
        ["x", "re", "im"],
        [[float(x), float(v.real), float(v.imag)] for x, v in zip(grid.x, res.u.values)],
    )
    _plot_trace(out / "trace.svg", res.trace, "norm trace")
    return report


def _cmd_verify_example(args, out: Path) -> dict:
    ep = _pick_example(args.id, args.sigma, args.s, args.T)
    grid = Grid(dim=1, n=args.n, L=args.L)
    ts = _parse_floats(args.t_samples) if args.t_samples else [0.0, 0.5 * args.T, args.T]
    ts = [min(t, args.T) for t in ts]
    u0 = sample(grid, ep.problem.g).values
    u0_exact = ep.u_exact(0.0, grid.x)
    u0_diff = float(np.max(np.abs(u0 - u0_exact)))
    # relative to the datum's size: example 3's grows like e^(<x>^(1/s)),
    # where g (real exp) and u_exact (complex exp) differ by an ulp or two
    u0_tol = 1e-14 * max(1.0, float(np.max(np.abs(u0_exact))))
    res = residual_check(ep, grid, ts)
    hyp = hypothesis_check(ep.problem, L=min(args.L, 20.0), t_samples=tuple(ts))
    # candidate losses must bracket the elapsed time: the critical family
    # sheds decay at unit rate, so its infimal loss sits at the horizon
    upper = max(0.99, args.T + 0.2)
    deltas = [round(0.01 * k, 10) for k in range(1, int(round(upper / 0.01)) + 1)]
    member = estimate_loss_delta(
        ep.phi, args.T, deltas, sigma=args.sigma, s=ep.problem.s0, rho2_g=ep.rho2_data
    )
    report = {
        "example": args.id,
        "sigma": args.sigma,
        "s": ep.problem.s0,
        "u0_max_diff": u0_diff,
        "max_residual": res["max_residual"],
        "residual_per_t": res["per_t"],
        "hypothesis": {"C_max": hyp["C_max"], "re_a_zero": hyp["re_a_zero"]},
        "membership": {
            "t": args.T,
            "infimal_delta": member["infimal_delta"],
            "critical": member["critical"],
        },
        "pass": (
            u0_diff <= u0_tol
            and res["max_residual"] <= 1e-12
            and hyp["pass"]
            and member["infimal_delta"] is not None
        ),
    }
    return report


def _cmd_symbol_check(args, out: Path) -> dict:
    params = LambdaParams(M=args.M, h=args.h, s=args.s, sigma=args.sigma)
    grid = Grid(dim=args.dim, n=args.n, L=args.L)
    tres = transport_sign_check(grid, params, direction_cap=args.cap, seed=args.seed)
    # a 1-D figure whatever --dim is; the report names its lattice
    clam_n = min(args.n, 256)
    clam = c_of_lambda(params, args.L, clam_n)

    xs = grid.x
    refs = [2.0 * args.h, 4.0 * args.h, -2.0 * args.h, -4.0 * args.h]
    rows = []
    series = {}
    for r in refs:
        # in 2-D the slice x2 = 0, xi = (r, 0) has the 1-D geometry exactly
        vals = lambda_sym(xs[:, None], np.full((xs.size, 1), r), params)
        pts = [(float(x), float(v)) for x, v in zip(xs, vals)]
        rows.extend([x, r, v, 0.0] for x, v in pts)
        series[f"xi={r:g}"] = pts
    _write_csv(out / "symbol_field.csv", ["x", "xi", "re", "im"], rows)
    emit_plot(out / "symbol_field.svg", series, title="phase weight slice", xlabel="x", ylabel="lambda")

    report = {
        "params": {"M": args.M, "h": args.h, "s": args.s, "sigma": args.sigma},
        "grid": {"dim": args.dim, "n": args.n, "L": args.L},
        "transport": {k: v for k, v in tres.items() if k != "worst"},
        "worst_points": tres["worst"],
        "c_of_lambda": clam,
        "c_of_lambda_lattice": {"dim": 1, "n": clam_n},
        "pass": tres["pass"],
    }
    return report


def _cmd_conjugation_check(args, out: Path) -> dict:
    hs = _parse_sweep(args.h, "--h")
    grid = Grid(dim=1, n=args.n, L=args.L)
    # every row takes a min-eig of G_v at t: refuse before the sweep
    _check_eig_size(grid)
    sched = _schedule(args.M, args.N, args.T, args.k0)
    sched._check_t(args.t)
    ep = example1(args.sigma, args.s, T=args.T)
    sweep = conjugation_remainder_check(hs, n=args.n, L=args.L, M=args.M, s=args.s, sigma=args.sigma)

    def min_eig_for(h: float) -> tuple[float, float]:
        """(min-eig of G_v at t, the cond(E0) the generator checked)."""
        params = LambdaParams(M=args.M, h=h, s=args.s, sigma=args.sigma)
        pair = WeightPair(grid, lambda_on_grid(grid, params))
        gen = ConjugatedGenerator(ep.problem, pair, params, sched, cond_cap=1e14)
        gv, cond = gen.dense(args.t), gen.cond_e0
        del pair, gen  # their n x m factors go before the eigen-solve's n x n copies
        return conjugated_min_eig(grid, gv), cond

    rows = [[r["h"], r["norm_r1"], *min_eig_for(r["h"]), r["n"]] for r in sweep["rows"]]
    norms = [r["norm_r1"] for r in sweep["rows"]]
    monotone = all(b < a for a, b in zip(norms, norms[1:]))
    report = {
        "rows": [
            {"h": r[0], "norm_r1": r[1], "min_eig": r[2], "cond_e0": r[3], "n": r[4]} for r in rows
        ],
        "h0": sweep["h0"],
        "monotone_decreasing": monotone,
        "pass": monotone and sweep["h0"] is not None,
    }
    _write_csv(out / "conjugation_sweep.csv", ["h", "norm_r1", "min_eig", "cond_e0", "n"], rows)
    emit_plot(
        out / "conjugation_sweep.svg",
        {"norm_r1": [(r[0], r[1]) for r in rows]},
        title="quantization remainder vs activation threshold",
        xlabel="h",
        ylabel="|r1|",
        logy=all(r[1] > 0 for r in rows),
    )
    return report


def _cmd_energy(args, out: Path) -> dict:
    if args.conjugated and args.method == "dense":
        raise _CliError("--method dense is the plain route's reference; the conjugated route steps with GMRES only")
    if args.eig_stride and not args.conjugated:
        raise _CliError("--eig-stride samples the conjugated route's eigenvalues; the plain route takes none")
    # the weight and schedule flags default to None, so that one given to
    # the plain route is told from its default and refused
    stray = [f"--{key}" for key in ("M", "h", "N", "k0") if getattr(args, key) is not None]
    if stray and not args.conjugated:
        raise _CliError(f"{', '.join(stray)}: the conjugated route's weight and schedule; the plain route takes neither")
    ep = _pick_example(args.example, args.sigma, args.s, args.T)
    grid = Grid(dim=1, n=args.n, L=args.L)
    l2 = GsIndices(0, 0, 0, 0, 2.0, 2.0)
    idx = [l2] + (_parse_indices(args.indices) if args.indices else [])
    if args.conjugated:
        M = 1.0 if args.M is None else args.M
        # activation threshold just inside the lattice band keeps the weight
        # quantization remainder inside the invertibility range
        params = LambdaParams(M=M, h=19.0 if args.h is None else args.h, s=args.s, sigma=args.sigma)
        sched = _schedule(M, 0.5 if args.N is None else args.N, args.T, args.k0)
        res = solve_conjugated(
            ep.problem, grid, args.dt, params, sched, indices=idx, eig_stride=args.eig_stride
        )
        extra = {k: res.report[k] for k in ("remainder_norm", "cond_e0", "min_eig_floor", "eig_samples")}
    else:
        res = solve(ep.problem, grid, args.dt, indices=idx, method=args.method)
        extra = {}
    trace = res.trace
    # an abort on the first step leaves one sample and no ratio to take: C0
    # is NaN, written as null, and the run fails as any abort does
    if len(trace.times) > 1:
        gron = gronwall_check(trace.times, trace.columns[l2.label()])
    else:
        gron = {"C0": math.nan, "argmax_t": math.nan}
    report = {
        "example": args.example,
        "conjugated": bool(args.conjugated),
        "C0": gron["C0"],
        "argmax_t": gron["argmax_t"],
        "aborted": res.report["aborted"],
        "abort_reason": res.report["abort_reason"],
        "gmres": res.report["gmres"],
        **{k: res.report[k] for k in ("boundary_initial", "boundary_final", "boundary_threshold")},
        **extra,
        "pass": bool(np.isfinite(gron["C0"])) and not res.report["aborted"],
    }
    _write_csv(out / "trace.csv", trace.header(), trace.rows())
    _plot_trace(out / "trace.svg", trace, "energy trace")
    return report


def _cmd_sharpness(args, out: Path) -> dict:
    deltas = _parse_sweep(args.deltas, "--deltas")
    below = example1(args.sigma, args.s_below, T=max(args.t, 1e-6))
    # the mirror of example1's refusal of s_below: sigma is checked there
    if not (args.s_above > 1.0 / (1.0 - args.sigma)):
        raise _CliError(f"--s-above needs s > 1/(1-sigma) = {1.0 / (1.0 - args.sigma)}, got {args.s_above}")
    above = _family(args.sigma, args.s_above, -1.0, max(args.t, 1e-6), "sharpness-upper", 1.0)
    est_b = estimate_loss_delta(below.phi, args.t, deltas, sigma=args.sigma, s=args.s_below, rho2_g=1.0)
    est_a = estimate_loss_delta(above.phi, args.t, deltas, sigma=args.sigma, s=args.s_above, rho2_g=1.0)

    all_conv = all(v == "convergent" for v in est_b["classification"])
    all_div = all(v == "divergent" for v in est_a["classification"])
    report = {
        "sigma": args.sigma,
        "t": args.t,
        "s_below": {"s": args.s_below, **est_b},
        "s_above": {"s": args.s_above, **est_a},
        "below_all_convergent": all_conv,
        "above_all_divergent": all_div,
        "pass": all_conv and all_div,
    }
    sides = ((args.s_below, est_b), (args.s_above, est_a))
    series = {f"s={s:g}": [(f["delta"], f["dominant_coef"]) for f in est["fits"]] for s, est in sides}
    emit_plot(
        out / "sharpness.svg", series, title="dominant tail coefficient vs candidate loss",
        xlabel="delta", ylabel="coefficient",
    )
    rows = [[s, f["delta"], f["dominant_coef"], v]
            for s, est in sides for f, v in zip(est["fits"], est["classification"])]
    _write_csv(out / "sharpness.csv", ["s", "delta", "dominant_coef", "verdict"], rows)
    return report


def _cmd_norm_sweep(args, out: Path) -> dict:
    ep = _pick_example(args.example, args.sigma, args.s, max(args.t, 1e-6))
    Ls = _parse_sweep(args.Ls, "--Ls")
    if not args.dx > 0.0:
        raise ValueError(f"dx must be positive, got {args.dx}")
    idx = GsIndices(0.0, args.m2, 0.0, args.rho2, ep.problem.s0, 2.0)

    def state_for(L: float) -> StateVector:
        n_f = 2.0 * L / args.dx
        n = int(round(n_f))
        if abs(n - n_f) > 1e-9 or n < 8 or n & (n - 1):
            raise ValueError(f"box L={L} with dx={args.dx} needs a power-of-two node count, got {n_f}")
        g = Grid(dim=1, n=n, L=L)
        return StateVector(g, ep.u_exact(args.t, g.x))

    rows = norm_box_sweep([state_for(L) for L in Ls], idx)
    norms = [r.norm for r in rows]
    monotone = all(b >= a * (1.0 - 1e-12) for a, b in zip(norms, norms[1:]))
    report = {
        "example": args.example,
        "t": args.t,
        "rho2": args.rho2,
        "m2": args.m2,
        "rows": [
            {"L": r.L, "norm": r.norm, "log_norm": r.log_norm, "overflow": r.overflow} for r in rows
        ],
        "monotone": monotone,
        "ratio_last_first": (norms[-1] / norms[0]) if norms[0] > 0 and np.isfinite(norms[-1]) else None,
        "pass": monotone,
    }
    _write_csv(
        out / "norm_sweep.csv",
        ["L", "norm", "overflow_flag"],
        [[r.L, r.norm, r.overflow] for r in rows],
    )
    if all(np.isfinite(r.norm) and r.norm > 0 for r in rows):
        emit_plot(
            out / "norm_sweep.svg",
            {"norm": [(r.L, r.norm) for r in rows]},
            title="truncated norm vs box size", xlabel="L", ylabel="norm", logy=True,
        )
    return report


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    # one per process: building it costs milliseconds, and parse_args
    # returns a fresh Namespace each call
    p = _Parser(prog="decaylab", description=__doc__)
    p.add_argument("--out", default="out", help="output directory for reports, tables, plots")
    p.add_argument("--threads", type=int, default=1, choices=(1,), help="1, the only value: every command runs in the calling thread")
    p.add_argument("--seed", type=int, default=0, help="seed of symbol-check's direction sample; no other command draws one")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="integrate an example and compare with its exact solution")
    sp.add_argument("--config", default=None, help="JSON file supplying any of the solve options")
    # no defaults here: _resolve_solve_options takes the flag, the config, then _SOLVE_DEFAULTS
    flags = (
        sp.add_argument("--example", type=int, choices=(1, 2, 3)),
        sp.add_argument("--sigma", type=float),
        sp.add_argument("--s", type=float),
        sp.add_argument("--n", type=int),
        sp.add_argument("--L", type=float, help="half box; default 40, 80 for example 2"),
        sp.add_argument("--dt", type=float),
        sp.add_argument("--T", type=float),
        sp.add_argument("--method", choices=("krylov", "dense")),
        sp.add_argument("--tol", type=float),
        sp.add_argument("--indices", help="semicolon-separated m1,m2,rho1,rho2[,s,theta]"),
    )
    sp.set_defaults(fn=_cmd_solve, solve_flags={a.dest: a for a in flags})

    vp = sub.add_parser("verify-example", help="residual, data, and hypothesis checks of one family")
    vp.add_argument("--id", type=int, choices=(1, 2, 3), required=True)
    vp.add_argument("--sigma", type=float, default=0.5)
    vp.add_argument("--s", type=float, default=1.8)
    vp.add_argument("--n", type=int, default=256)
    vp.add_argument("--L", type=float, default=20.0)
    vp.add_argument("--T", type=float, default=0.5)
    vp.add_argument("--t-samples", default=None)
    vp.set_defaults(fn=_cmd_verify_example)

    yp = sub.add_parser("symbol-check", help="transport sign and size checks of the phase weight")
    yp.add_argument("--dim", type=int, choices=(1, 2), default=1)
    yp.add_argument("--n", type=int, default=128)
    yp.add_argument("--L", type=float, default=10.0)
    yp.add_argument("--h", type=float, default=2.0)
    yp.add_argument("--M", type=float, default=1.0)
    yp.add_argument("--s", type=float, default=1.8)
    yp.add_argument("--sigma", type=float, default=0.5)
    # sampled direction classes, 1.3-1.6 ms each on a 128x128 lattice (2
    # cores): the default 256 of its 5040 classes take about 0.35 s
    yp.add_argument("--cap", type=int, default=256)
    yp.set_defaults(fn=_cmd_symbol_check)

    cp = sub.add_parser("conjugation-check", help="quantization remainder sweep over h")
    cp.add_argument("--h", default="5,10,20,40", help="comma-separated thresholds")
    cp.add_argument("--n", type=int, default=256)
    # the periodic seam prevents remainder decay on wide boxes; the pinned
    # ladder is strictly decreasing with norms below one on this box
    cp.add_argument("--L", type=float, default=0.5)
    cp.add_argument("--M", type=float, default=1.0)
    cp.add_argument("--s", type=float, default=1.8)
    cp.add_argument("--sigma", type=float, default=0.5)
    cp.add_argument("--N", type=float, default=2.0)
    cp.add_argument("--T", type=float, default=0.5)
    cp.add_argument("--t", type=float, default=0.5)
    cp.add_argument("--k0", default="auto")
    cp.set_defaults(fn=_cmd_conjugation_check)

    ep_ = sub.add_parser("energy", help="norm trace and energy-inequality constant")
    ep_.add_argument("--example", type=int, choices=(1, 2, 3), required=True)
    ep_.add_argument("--sigma", type=float, default=0.5)
    ep_.add_argument("--s", type=float, default=1.8)
    ep_.add_argument("--n", type=int, default=256)
    ep_.add_argument("--L", type=float, default=20.0)
    ep_.add_argument("--dt", type=float, default=1e-3)
    ep_.add_argument("--T", type=float, default=0.25)
    ep_.add_argument("--method", choices=("krylov", "dense"), default="krylov")
    ep_.add_argument("--indices", default=None)
    ep_.add_argument("--conjugated", action="store_true")
    # the conjugated route's weight and schedule, refused without
    # --conjugated; _cmd_energy fills in the defaults
    ep_.add_argument("--M", type=float, help="default 1")
    ep_.add_argument("--h", type=float, help="default 19")
    ep_.add_argument("--N", type=float, help="default 0.5")
    ep_.add_argument("--k0", help="default auto, (M + 1)(e^(N T) - 1)")
    ep_.add_argument("--eig-stride", type=int, default=0)
    ep_.set_defaults(fn=_cmd_energy)

    hp = sub.add_parser("sharpness", help="opposite verdicts below and above the index threshold")
    hp.add_argument("--sigma", type=float, default=0.5)
    hp.add_argument("--s-below", type=float, default=1.8)
    hp.add_argument("--s-above", type=float, default=3.0)
    hp.add_argument("--t", type=float, default=0.5)
    hp.add_argument("--deltas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    hp.set_defaults(fn=_cmd_sharpness)

    np_ = sub.add_parser("norm-sweep", help="truncated weighted norms over growing boxes")
    np_.add_argument("--example", type=int, choices=(1, 2, 3), default=1)
    np_.add_argument("--sigma", type=float, default=0.5)
    np_.add_argument("--s", type=float, default=1.8)
    np_.add_argument("--t", type=float, default=0.5)
    np_.add_argument("--rho2", type=float, default=1.0)
    np_.add_argument("--m2", type=float, default=0.0)
    np_.add_argument("--Ls", default="20,40,80")
    np_.add_argument("--dx", type=float, default=0.15625)
    np_.set_defaults(fn=_cmd_norm_sweep)
    return p


def main(argv=None) -> int:
    """Run one command.  It writes its tables and plots under --out; main
    then writes the report there as report.json and prints the same text.
    Returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report = args.fn(args, out)
        text = json.dumps(_strict(report), indent=2, sort_keys=True, allow_nan=False)
        _write_text(out / "report.json", text + "\n")
    except (_CliError, ValueError, FileNotFoundError, FileExistsError, NotADirectoryError) as e:
        print(json.dumps({"error": str(e), "exit_code": 2}, sort_keys=True))
        return 2
    print(text)
    return 0 if report.get("pass", False) else 1


if __name__ == "__main__":
    sys.exit(main())
