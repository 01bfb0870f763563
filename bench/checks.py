"""The benchmark's own output check of each operation.

The checks reuse the acceptance gate's assertions on the artifacts an
operation wrote, and recompute what they can rather than trust the
report's ``pass``.  They leave alone the values that ROADMAP items 2 and 4
plan to change at roundoff level or by design (``worst_margin``,
``fd_tol_max``, the ``norm_r1`` estimate itself).

``check`` returns ``(problem, err_to_tol)``: ``problem`` is None when the
output is correct, and ``err_to_tol`` is the operation's recomputed error
as a share of the tolerance the gate holds it to (None if it has none).
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# tests/test_symbol.py holds the plateau margin of the transport check to
# finite-difference noise below this
PLATEAU_TOL = 1e-6


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def _solve(op, out, examples):
    rep = _report(out)
    if rep["aborted"]:
        return f"solve aborted: {rep['abort_reason']}", None
    exp = op.expect
    if exp["example"] == 1:
        ep = examples.example1(0.5, 1.8, T=exp["T"])
    else:
        ep = examples.example2(0.5, T=exp["T"])
    x, re, im = np.loadtxt(out / "final_state.csv", delimiter=",", skiprows=1, unpack=True)
    err = float(np.max(np.abs(re + 1j * im - ep.u_exact(exp["T"], x))))
    if not err <= exp["tol"]:
        return f"linf error {err:.3e} above tol {exp['tol']:g}", err / exp["tol"]
    return None, err / exp["tol"]


def _energy(op, out, examples):
    rep = _report(out)
    if not math.isfinite(rep["C0"]):
        return f"C0 not finite: {rep['C0']}", None
    if rep.get("aborted"):
        return f"solve aborted: {rep['abort_reason']}", None
    return None, None


def _energy_conjugated(op, out, examples):
    rep = _report(out)
    if not math.isfinite(rep["C0"]):
        return f"C0 not finite: {rep['C0']}", None
    floor = rep["min_eig_floor"]
    if floor is None or not floor > -1.0:
        return f"min_eig_floor {floor} not above -1", None
    return None, None


def _conjugation(op, out, examples):
    rep = _report(out)
    norms = [r["norm_r1"] for r in rep["rows"]]
    if not all(b < a for a, b in zip(norms, norms[1:])):
        return f"remainder norms not strictly decreasing: {norms}", None
    if rep["h0"] is None:
        return "no threshold h0 with remainder below 1", None
    return None, None


def _transport(op, out, examples):
    tr = _report(out)["transport"]
    if tr["violations"] != 0:
        return f"{tr['violations']} transport sign violations", None
    want = min(op.expect["directions"], tr["directions_total"])
    if tr["directions_checked"] != want:
        return f"checked {tr['directions_checked']} directions, expected {want}", None
    return None, tr["plateau_deviation"] / PLATEAU_TOL


def _sharpness(op, out, examples):
    rep = _report(out)
    below = rep["s_below"]["classification"]
    above = rep["s_above"]["classification"]
    if not all(v == "convergent" for v in below):
        return f"below-threshold verdicts {below}", None
    if not all(v == "divergent" for v in above):
        return f"above-threshold verdicts {above}", None
    return None, None


def _norm_sweep(op, out, examples):
    norms = [r["norm"] for r in _report(out)["rows"]]
    if not all(b > a for a, b in zip(norms, norms[1:])):
        return f"truncated norms not increasing with the box: {norms}", None
    return None, None


def _verify(op, out, examples):
    rep = _report(out)
    if not rep["max_residual"] <= 1e-12:
        return f"residual {rep['max_residual']:.3e} above 1e-12", None
    t = op.expect.get("critical_T")
    if t is None:
        return None, None
    # criterion 4: the critical family's infimal loss is the elapsed time within 10%
    delta = rep["membership"]["infimal_delta"]
    if delta is None:
        return "no convergent loss found", None
    ratio = abs(delta / t - 1.0) / 0.10
    return (None if ratio <= 1.0 else f"infimal loss {delta} not within 10% of t={t}"), ratio


CHECKS = {
    "solve": _solve,
    "energy": _energy,
    "energy-conjugated": _energy_conjugated,
    "conjugation": _conjugation,
    "transport": _transport,
    "sharpness": _sharpness,
    "norm-sweep": _norm_sweep,
    "verify": _verify,
}


def check(op, rc: int, out: Path, examples) -> tuple[str | None, float | None]:
    """Check one finished operation; ``examples`` is ``decaylab.examples``."""
    if rc != 0:
        return f"exit code {rc}", None
    try:
        return CHECKS[op.check](op, out, examples)
    except (OSError, KeyError, TypeError, ValueError) as e:
        return f"unreadable output: {e!r}", None
