"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest bench -q
"""
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import checks
import tracing
from tracing import Span, Tracer, layer_metrics, self_times, union_length
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert union_length([(2, 3), (2, 3)]) == 1
    assert union_length([(5, 6)], 0, 4) == 0
    assert union_length([]) == 0


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, None, "cli.main", 0.0, 10.0),
        Span(2, 1, "pdo.hermitian_min_eig", 1.0, 4.0),
        Span(3, 1, "pdo.hermitian_min_eig", 3.0, 6.0),
        Span(4, 1, "symbol.lambda_on_grid", 8.0, 12.0),
        Span(5, 2, "pdo.assemble_dense", 1.5, 2.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(2.5)
    assert own[5] == pytest.approx(0.5)


def test_worker_thread_spans_are_children_of_the_operation():
    # conjugation-check runs hermitian_min_eig in ThreadPoolExecutor workers
    tracer = Tracer()
    both_open = threading.Barrier(2, timeout=10)

    def min_eig(_):
        with tracer.span("pdo.hermitian_min_eig"):
            both_open.wait()
            time.sleep(0.02)

    with tracer.span("cli.main", root=True):
        with tracer.span("pdo.conjugation_remainder_check"):
            time.sleep(0.01)
        with ThreadPoolExecutor(max_workers=2) as ex:
            list(ex.map(min_eig, range(2)))

    root = next(s for s in tracer.spans if s.name == "cli.main")
    kids = [s for s in tracer.spans if s.name != "cli.main"]
    assert all(s.parent == root.sid for s in kids)
    workers = [s for s in kids if s.name == "pdo.hermitian_min_eig"]
    assert max(w.start for w in workers) < min(w.end for w in workers)
    covered = union_length([(s.start, s.end) for s in kids])
    assert covered < sum(s.duration for s in kids)
    assert self_times(tracer.spans)[root.sid] == pytest.approx(root.duration - covered)


def _spans_for_ratios():
    spans = [
        Span(1, None, "cli.main", 0, 100),
        Span(2, 1, "cauchy.solve", 0, 40, {"steps": 4, "method": "krylov", "aborted": False}),
        Span(3, 1, "cauchy.solve", 40, 60, {"steps": 2, "method": "dense", "aborted": False}),
        Span(4, 1, "symbol.transport_sign_check", 60, 80, {"checked": 32, "total": 5040}),
        Span(5, 1, "symbol.transport_sign_check", 80, 100, {"checked": 8, "total": 20088}),
    ]
    sid = 10
    for parent, count in ((2, 10), (3, 3)):
        for k in range(count):
            spans.append(Span(sid, parent, "grid.apply_multiplier", k, k + 0.5))
            spans.append(Span(sid + 1, parent, "examples.coeff", k + 0.5, k + 0.75))
            sid += 2
    return spans


def test_ratios_are_reported_with_their_bases():
    m = layer_metrics(_spans_for_ratios(), passes=2, artifact_bytes_per_op=10.0, overhead_s=0.0)
    assert m["cauchy.solve.steps.krylov"] == 2  # per pass
    assert m["grid.apply_multiplier.krylov_calls"] == 5
    assert m["grid.apply_multiplier.calls"] == 6.5
    assert m["grid.apply_multiplier.calls_per_step"] == 2.5
    assert m["examples.coeff.calls_per_step"] == 2.5
    assert m["cauchy.step_s.krylov"] == 10.0
    assert m["cauchy.step_s.dense"] == 10.0
    assert m["symbol.transport.directions_checked"] == 20
    assert m["symbol.transport.directions_total"] == (5040 + 20088) / 2
    assert m["symbol.transport.coverage"] == 40 / (5040 + 20088)
    assert m["symbol.transport.s_per_direction"] == 40 / 40


def test_ratios_are_zero_where_a_workload_does_no_such_work():
    m = layer_metrics([Span(1, None, "cli.main", 0, 1)], passes=1, artifact_bytes_per_op=0, overhead_s=0)
    assert m["grid.apply_multiplier.calls_per_step"] == 0
    assert m["symbol.transport.coverage"] == 0
    assert set(m) == set(tracing.UNITS)


TINY = [
    ["solve", "--example", "1", "--n", "128", "--L", "16", "--T", "0.02", "--method", "krylov"],
    ["conjugation-check", "--n", "64", "--h", "5,10"],
    ["verify-example", "--id", "1"],
    ["energy", "--example", "1", "--conjugated", "--n", "128", "--L", "15", "--h", "12",
     "--dt", "0.0125", "--eig-stride", "5"],
    ["symbol-check", "--dim", "2", "--n", "16", "--L", "4", "--cap", "3"],
]


def _traced_counts(tmp_path):
    import decaylab.cli

    tracer = Tracer()
    with tracing.instrument(tracer):
        for argv in TINY:
            with tracer.span("cli.main", root=True):
                decaylab.cli.main(["--out", str(tmp_path / "out"), *argv])
    m = layer_metrics(tracer.spans, passes=1, artifact_bytes_per_op=0, overhead_s=0)
    return {k: v for k, v in m.items() if tracing.UNITS[k] in ("count", "calls/step", "ratio", "B")}


def test_two_traced_runs_give_identical_counts(tmp_path, capsys):
    import decaylab.cauchy
    import decaylab.cli
    import decaylab.pdo

    originals = (decaylab.cli.solve, decaylab.cauchy.apply_multiplier, decaylab.pdo.assemble_dense,
                 decaylab.cli.example1)
    first = _traced_counts(tmp_path)
    second = _traced_counts(tmp_path)
    assert first == second
    assert first["symbol.lambda_on_grid.calls"] == 2 * 2 + 1  # two per h, plus the conjugated energy
    assert first["pdo.hermitian_min_eig.calls"] > 2
    assert first["grid.apply_multiplier.calls_per_step"] > 2
    assert first["examples.coeff.krylov_calls"] == first["grid.apply_multiplier.krylov_calls"]
    assert first["symbol.transport.directions_checked"] == 3
    assert (decaylab.cli.solve, decaylab.cauchy.apply_multiplier, decaylab.pdo.assemble_dense,
            decaylab.cli.example1) == originals


def test_solve_check_recomputes_the_error(tmp_path, capsys):
    import decaylab.cli
    import decaylab.examples

    out = tmp_path / "out"
    op = Op("tiny", (), "solve", "", expect={"example": 1, "T": 0.1, "tol": 0.01})
    argv = ["solve", "--example", "1", "--n", "128", "--L", "15", "--dt", "0.025", "--T", "0.1", "--tol", "0.01"]
    assert decaylab.cli.main(["--out", str(out), *argv]) == 0
    problem, ratio = checks.check(op, 0, out, decaylab.examples)
    reported = json.loads((out / "report.json").read_text())["linf_error"]
    assert problem is None
    assert ratio == pytest.approx(reported / 0.01, rel=1e-12)

    csv = out / "final_state.csv"
    lines = csv.read_text().splitlines()
    x, re, im = lines[60].split(",")
    lines[60] = f"{x},{float(re) + 0.05},{im}"
    csv.write_text("\n".join(lines) + "\n")
    problem, ratio = checks.check(op, 0, out, decaylab.examples)
    assert problem is not None and ratio > 1.0
    assert checks.check(op, 1, out, decaylab.examples)[0] == "exit code 1"


def test_benchmark_json_lists_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
