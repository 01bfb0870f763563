#!/usr/bin/env python3
"""decaylab benchmark: CLI operations in a closed loop, timed end to end.

    python3 bench/run.py --workload evolve --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  One caller issues ``decaylab.cli.main(argv)`` in-process, one
operation after another, for ``--seconds`` seconds (each operation runs at
least once), and checks every operation's output.  Workloads and their
operations are in ``workloads.py``, output checks in ``checks.py``.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``wall_s``
(one pass over the workload's operations: the sum of each operation's
median time), ``peak_rss_mb``, ``ok_ratio`` and ``err_to_tol``.
``--trace 1`` replays a fixed number of passes untraced and then traced
(``tracing.py``) and reports the per-layer metrics per pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary and the run's provenance.  The artifacts the CLI
writes go to ``.bench_out/`` under the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up is repeated in this many processes (this one included) and the
# median reported, so that one slow import does not decide setup_s
SETUP_SAMPLES = 5

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import WORKLOADS, cli_argv, passes  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import decaylab from this checkout's src/, never from elsewhere."""
    if not (SRC / "decaylab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no decaylab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import decaylab.cli
    import decaylab.examples

    if Path(decaylab.__file__).resolve().parent != SRC / "decaylab":
        raise SystemExit(f"bench: imported decaylab from {decaylab.__file__}, not {SRC}")
    return decaylab


def call_cli(cli_main, argv) -> tuple[float, int, str | None]:
    """One operation: (seconds, exit code, traceback if it raised)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli_main(argv)
    except Exception:
        return time.perf_counter() - t0, -1, traceback.format_exc()
    return time.perf_counter() - t0, rc, None


def setup(workload, seed, scratch: Path):
    """Import the program, draw the operations from the seed and warm up.
    Returns (seconds, decaylab package, pass generator)."""
    t0 = time.perf_counter()
    pkg = import_program()
    schedule = passes(workload, seed)
    for argv in workload.warmup:
        _, rc, err = call_cli(pkg.cli.main, ["--out", str(scratch / "warmup"), "--threads", "1", *argv])
        if err is not None or rc not in (0, 1):
            raise SystemExit(f"bench: warm-up {' '.join(argv)} failed (exit {rc})\n{err or ''}")
    return time.perf_counter() - t0, pkg, schedule


def setup_in_children(args) -> list[float]:
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise SystemExit(f"bench: set-up in a child process failed\n{res.stderr}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs operations one after another and checks each one's output."""

    def __init__(self, pkg, scratch: Path):
        import checks

        self.pkg = pkg
        self.check = checks.check
        self.out = scratch / "op"
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[float] = []

    def run(self, op, op_seed, wrap=None) -> tuple[float, int]:
        """Time one operation; returns (seconds, bytes it wrote)."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = cli_argv(op, op_seed, self.out)
        cli_main = self.pkg.cli.main if wrap is None else wrap(self.pkg.cli.main)
        dt, rc, err = call_cli(cli_main, argv)
        self.attempted += 1
        problem, err_ratio = (f"raised\n{err}", None) if err else self.check(op, rc, self.out, self.pkg.examples)
        if problem is not None:
            self.failures.append(f"{op.key} (seed {op_seed}): {problem}")
        if err_ratio is not None:
            self.errors.append(err_ratio)
        written = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        return dt, written


def closed_loop(runner: Runner, workload, schedule, seconds: float) -> dict[str, list[float]]:
    """Operations in the seeded order until the next one would end past
    ``seconds``, once every operation has run at least once."""
    samples: dict[str, list[float]] = {op.key: [] for op in workload.ops}
    t0 = time.perf_counter()
    for batch in schedule:
        for op, op_seed in batch:
            if all(samples.values()):
                elapsed = time.perf_counter() - t0
                if elapsed + samples[op.key][-1] > seconds:
                    return samples
            samples[op.key].append(runner.run(op, op_seed)[0])
    raise AssertionError("unreachable: the schedule is endless")


def pass_time(samples: dict[str, list[float]]) -> float:
    return sum(statistics.median(v) for v in samples.values())


def traced_passes(runner: Runner, workload, schedule):
    """The workload's fixed trace passes, untraced and then traced with the
    same operations and seeds.  Returns (spans, untraced s, traced s,
    artifact bytes per operation)."""
    ops = [item for _, batch in zip(range(workload.trace_passes), schedule) for item in batch]
    untraced = sum(runner.run(op, s)[0] for op, s in ops)
    tracer = tracing.Tracer()

    def as_root(cli_main):
        def traced_main(argv):
            with tracer.span("cli.main", root=True):
                return cli_main(argv)

        return traced_main

    written = 0
    traced = 0.0
    with tracing.instrument(tracer):
        for op, s in ops:
            dt, nbytes = runner.run(op, s, wrap=as_root)
            traced += dt
            written += nbytes
    return tracer.spans, untraced, traced, written / len(ops)


def blas_info() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads():
    """Threads the loaded OpenBLAS uses, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git (which
    would search parent directories when the checkout has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, pkg) -> dict:
    import numpy as np

    first_pass = next(passes(WORKLOADS[args.workload], args.seed))
    return {
        "git_commit": git_commit(),
        "decaylab": pkg.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "first_pass": [
            {"op": op.key, "matches": op.matches, "argv": cli_argv(op, s, "<out>")} for op, s in first_pass
        ],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    scratch = OUT / f"run-{os.getpid()}"
    try:
        setup_s, pkg, schedule = setup(workload, args.seed, scratch)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        prov = provenance(args, pkg)
        runner = Runner(pkg, scratch)
        if args.trace:
            spans, untraced, traced, per_op_bytes = traced_passes(runner, workload, schedule)
            values = tracing.layer_metrics(
                spans,
                passes=workload.trace_passes,
                artifact_bytes_per_op=per_op_bytes,
                overhead_s=(traced - untraced) / workload.trace_passes,
            )
            metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in values.items()}
            print(f"traced {workload.trace_passes} pass(es): untraced {untraced:.4f} s, traced {traced:.4f} s")
        else:
            samples = closed_loop(runner, workload, schedule, args.seconds)
            for key, v in samples.items():
                print(f"  {key:<22} n={len(v):<4} median {statistics.median(v):9.4f} s  "
                      f"min {min(v):9.4f}  max {max(v):9.4f}")
            ok = runner.attempted - len(runner.failures)
            metrics = {
                "setup_s": {"value": statistics.median([setup_s, *setup_in_children(args)]), "unit": "s"},
                "wall_s": {"value": pass_time(samples), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
                "ok_ratio": {"value": ok / runner.attempted, "unit": "ratio"},
                "err_to_tol": {"value": max(runner.errors, default=0.0), "unit": "ratio"},
            }
            print(f"  fail_ratio = {len(runner.failures)}/{runner.attempted}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()

    for problem in runner.failures:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:<42} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
