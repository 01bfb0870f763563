"""Spans and counts around the calls into each decaylab module.

The package is not edited: ``instrument`` replaces each public function at
the place its caller looks it up (``decaylab.cli.solve``,
``decaylab.cauchy.apply_multiplier``, ...) with a wrapper that records a
span, and puts the originals back afterwards.  Coefficient calls are
counted by handing the CLI problems whose ``a``/``b``/``f`` callables are
wrapped the same way.  Spans stay in memory; ``layer_metrics`` turns them
into the per-layer figures of BENCHMARK.json.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread.

    A span's parent is the innermost open span of its own thread.  A span
    opened in a thread with none open (a ``ThreadPoolExecutor`` worker) gets
    the open root span as parent: the operation that caused it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, *, root: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        attrs: dict = {}
        stack.append(sid)
        if root:
            self._root = sid
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root = None
            with self._lock:
                self.spans.append(Span(sid, parent, name, start, end, attrs))

    def wrap(self, name: str, fn, record=None):
        """``fn`` inside a span; ``record(attrs, result)`` notes counts
        taken from the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                if record is not None:
                    record(attrs, out)
                return out

        return traced


def _solve_attrs(attrs, res):
    rep = res.report
    attrs.update(steps=rep["steps_taken"], method=rep["method"], aborted=bool(rep["aborted"]))


def _conjugated_attrs(attrs, res):
    attrs.update(steps=int(round(res.report["T"] / res.report["dt"])))


def _transport_attrs(attrs, rep):
    attrs.update(checked=rep["directions_checked"], total=rep["directions_total"])


def _dense_attrs(attrs, op):
    attrs.update(bytes=op.matrix.nbytes)


# (span name, function, modules whose namespace the callers look it up in,
# counts taken from the result)
SITES = (
    ("cauchy.solve", "solve", ("cli",), _solve_attrs),
    ("cauchy.solve_conjugated", "solve_conjugated", ("cli",), _conjugated_attrs),
    ("cauchy.estimate_loss_delta", "estimate_loss_delta", ("cli",), None),
    ("grid.apply_multiplier", "apply_multiplier", ("cauchy", "gsnorm"), None),
    ("examples.residual_check", "residual_check", ("cli",), None),
    ("examples.hypothesis_check", "hypothesis_check", ("cli",), None),
    ("gsnorm.gs_norm_ex", "gs_norm_ex", ("cauchy", "gsnorm"), None),
    ("gsnorm.norm_box_sweep", "norm_box_sweep", ("cli",), None),
    # symbol: pdo.conjugation_remainder_check imports it at call time
    ("symbol.lambda_on_grid", "lambda_on_grid", ("cli", "cauchy", "symbol"), None),
    ("symbol.transport_sign_check", "transport_sign_check", ("cli",), _transport_attrs),
    ("pdo.assemble_dense", "assemble_dense", ("cli", "cauchy", "pdo"), _dense_attrs),
    ("pdo.inverse", "inverse", ("cli", "cauchy", "pdo"), None),
    ("pdo.power_iteration_norm", "power_iteration_norm", ("cauchy", "pdo"), None),
    ("pdo.conjugation_remainder_check", "conjugation_remainder_check", ("cli",), None),
    ("pdo.hermitian_min_eig", "hermitian_min_eig", ("cli", "cauchy"), None),
    ("svgplot.emit_plot", "emit_plot", ("cli",), None),
)

EXAMPLE_FACTORIES = ("example1", "example2", "example3", "_family")


def _counted_problems(tracer: Tracer, factory):
    """A factory whose problems count each call of their coefficients."""

    def count(fn):
        return None if fn is None else tracer.wrap("examples.coeff", fn)

    @functools.wraps(factory)
    def make(*args, **kwargs):
        ep = factory(*args, **kwargs)
        prob = ep.problem
        prob = dataclasses.replace(prob, a=tuple(count(f) for f in prob.a), b=count(prob.b), f=count(prob.f))
        return dataclasses.replace(ep, problem=prob)

    return make


@contextmanager
def instrument(tracer: Tracer):
    """Patch every site in SITES (and the example factories the CLI uses),
    restoring the original functions on exit."""
    mod = functools.partial(importlib.import_module, package="decaylab")
    saved = []

    def patch(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    try:
        for name, attr, where, record in SITES:
            original = getattr(mod(f".{where[0]}"), attr)
            traced = tracer.wrap(name, original, record)
            for m in where:
                patch(mod(f".{m}"), attr, traced)
        cli = mod(".cli")
        for attr in EXAMPLE_FACTORIES:
            patch(cli, attr, _counted_problems(tracer, getattr(cli, attr)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# arithmetic


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover;
    children running in parallel threads are counted once."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - union_length(children.get(s.sid, ()), s.start, s.end) for s in spans}


def ratio(num: float, den: float) -> float:
    """num / den, or 0 where the workload does no such work."""
    return num / den if den else 0.0


# (name, unit, better); BENCHMARK.json's per_layer lists exactly these
PER_LAYER = (
    ("cauchy.solve.busy_s", "s", "lower"),
    ("cauchy.solve.self_s", "s", "lower"),
    ("cauchy.solve.steps", "count", "higher"),
    ("cauchy.solve.steps.krylov", "count", "higher"),
    ("cauchy.solve.steps.dense", "count", "higher"),
    ("cauchy.step_s.krylov", "s/step", "lower"),
    ("cauchy.step_s.dense", "s/step", "lower"),
    ("cauchy.solve.aborted", "count", "lower"),
    ("cauchy.solve_conjugated.busy_s", "s", "lower"),
    ("cauchy.solve_conjugated.steps", "count", "higher"),
    ("cauchy.step_s.conjugated", "s/step", "lower"),
    ("cauchy.estimate_loss_delta.busy_s", "s", "lower"),
    ("grid.apply_multiplier.calls", "count", "lower"),
    ("grid.apply_multiplier.krylov_calls", "count", "lower"),
    ("grid.apply_multiplier.calls_per_step", "calls/step", "lower"),
    ("grid.apply_multiplier.busy_s", "s", "lower"),
    ("examples.coeff.calls", "count", "lower"),
    ("examples.coeff.krylov_calls", "count", "lower"),
    ("examples.coeff.calls_per_step", "calls/step", "lower"),
    ("examples.coeff.busy_s", "s", "lower"),
    ("examples.residual_check.busy_s", "s", "lower"),
    ("examples.hypothesis_check.busy_s", "s", "lower"),
    ("gsnorm.gs_norm_ex.calls", "count", "lower"),
    ("gsnorm.gs_norm_ex.busy_s", "s", "lower"),
    ("gsnorm.norm_box_sweep.busy_s", "s", "lower"),
    ("symbol.lambda_on_grid.calls", "count", "lower"),
    ("symbol.lambda_on_grid.busy_s", "s", "lower"),
    ("symbol.transport_sign_check.busy_s", "s", "lower"),
    ("symbol.transport.directions_checked", "count", "higher"),
    ("symbol.transport.directions_total", "count", "higher"),
    ("symbol.transport.coverage", "ratio", "higher"),
    ("symbol.transport.s_per_direction", "s/direction", "lower"),
    ("pdo.assemble_dense.calls", "count", "lower"),
    ("pdo.assemble_dense.busy_s", "s", "lower"),
    ("pdo.assemble_dense.bytes", "B", "lower"),
    ("pdo.inverse.busy_s", "s", "lower"),
    ("pdo.power_iteration_norm.busy_s", "s", "lower"),
    ("pdo.conjugation_remainder_check.busy_s", "s", "lower"),
    ("pdo.hermitian_min_eig.calls", "count", "lower"),
    ("pdo.hermitian_min_eig.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.artifact_bytes", "B", "lower"),
    ("svgplot.emit_plot.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(spans, *, passes: int, artifact_bytes_per_op: float, overhead_s: float) -> dict[str, float]:
    """Per-layer figures per pass of the workload (artifact bytes per
    operation).  Each ratio is reported
    next to its base: ``calls_per_step`` counts the calls made inside
    Krylov solves (``*.krylov_calls``) per Krylov step
    (``cauchy.solve.steps.krylov``); ``coverage`` is directions checked over
    directions total."""
    by_sid = {s.sid: s for s in spans}
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(ss):
        return sum(s.duration for s in ss)

    def total(ss, key):
        return sum(s.attrs[key] for s in ss)

    krylov_solves = {s.sid for s in named("cauchy.solve") if s.attrs["method"] == "krylov"}

    def in_krylov(s):
        while s.parent is not None:
            if s.parent in krylov_solves:
                return True
            s = by_sid[s.parent]
        return False

    solves = named("cauchy.solve")
    kry = [s for s in solves if s.sid in krylov_solves]
    den = [s for s in solves if s.attrs["method"] == "dense"]
    conj = named("cauchy.solve_conjugated")
    mult = named("grid.apply_multiplier")
    coeff = named("examples.coeff")
    transport = named("symbol.transport_sign_check")
    dense_ops = named("pdo.assemble_dense")
    steps_k = total(kry, "steps")
    mult_k = sum(1 for s in mult if in_krylov(s))
    coeff_k = sum(1 for s in coeff if in_krylov(s))
    checked = total(transport, "checked")

    per_pass = {
        "cauchy.solve.busy_s": busy(solves),
        "cauchy.solve.self_s": sum(own[s.sid] for s in solves),
        "cauchy.solve.steps": total(solves, "steps"),
        "cauchy.solve.steps.krylov": steps_k,
        "cauchy.solve.steps.dense": total(den, "steps"),
        "cauchy.solve.aborted": sum(1 for s in solves if s.attrs["aborted"]),
        "cauchy.solve_conjugated.busy_s": busy(conj),
        "cauchy.solve_conjugated.steps": total(conj, "steps"),
        "cauchy.estimate_loss_delta.busy_s": busy(named("cauchy.estimate_loss_delta")),
        "grid.apply_multiplier.calls": len(mult),
        "grid.apply_multiplier.krylov_calls": mult_k,
        "grid.apply_multiplier.busy_s": busy(mult),
        "examples.coeff.calls": len(coeff),
        "examples.coeff.krylov_calls": coeff_k,
        "examples.coeff.busy_s": busy(coeff),
        "examples.residual_check.busy_s": busy(named("examples.residual_check")),
        "examples.hypothesis_check.busy_s": busy(named("examples.hypothesis_check")),
        "gsnorm.gs_norm_ex.calls": len(named("gsnorm.gs_norm_ex")),
        "gsnorm.gs_norm_ex.busy_s": busy(named("gsnorm.gs_norm_ex")),
        "gsnorm.norm_box_sweep.busy_s": busy(named("gsnorm.norm_box_sweep")),
        "symbol.lambda_on_grid.calls": len(named("symbol.lambda_on_grid")),
        "symbol.lambda_on_grid.busy_s": busy(named("symbol.lambda_on_grid")),
        "symbol.transport_sign_check.busy_s": busy(transport),
        "symbol.transport.directions_checked": checked,
        "symbol.transport.directions_total": total(transport, "total"),
        "pdo.assemble_dense.calls": len(dense_ops),
        "pdo.assemble_dense.busy_s": busy(dense_ops),
        "pdo.assemble_dense.bytes": total(dense_ops, "bytes"),
        "pdo.inverse.busy_s": busy(named("pdo.inverse")),
        "pdo.power_iteration_norm.busy_s": busy(named("pdo.power_iteration_norm")),
        "pdo.conjugation_remainder_check.busy_s": busy(named("pdo.conjugation_remainder_check")),
        "pdo.hermitian_min_eig.calls": len(named("pdo.hermitian_min_eig")),
        "pdo.hermitian_min_eig.busy_s": busy(named("pdo.hermitian_min_eig")),
        "cli.main.self_s": sum(own[s.sid] for s in named("cli.main")),
        "svgplot.emit_plot.busy_s": busy(named("svgplot.emit_plot")),
    }
    out = {k: v / passes for k, v in per_pass.items()}
    out.update(
        {
            "cauchy.step_s.krylov": ratio(busy(kry), steps_k),
            "cauchy.step_s.dense": ratio(busy(den), per_pass["cauchy.solve.steps.dense"]),
            "cauchy.step_s.conjugated": ratio(busy(conj), per_pass["cauchy.solve_conjugated.steps"]),
            "grid.apply_multiplier.calls_per_step": ratio(mult_k, steps_k),
            "examples.coeff.calls_per_step": ratio(coeff_k, steps_k),
            "symbol.transport.coverage": ratio(checked, per_pass["symbol.transport.directions_total"]),
            "symbol.transport.s_per_direction": ratio(busy(transport), checked),
            "cli.artifact_bytes": artifact_bytes_per_op,
            "trace.overhead_s": overhead_s,
        }
    )
    return {name: out[name] for name, _, _ in PER_LAYER}
