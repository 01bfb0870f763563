"""The benchmark's workloads: which CLI operations each one runs, and why.

Every operation is one ``decaylab.cli.main(argv)`` call at acceptance-gate
settings with the CLI's ``--threads 1``.  ``matches`` names the ROADMAP
baseline row or acceptance criterion the operation reproduces; ``check``
names the benchmark's own output check (see ``checks.py``).  Operations
marked ``seeded`` receive a ``--seed`` drawn from the workload seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...]
    check: str
    matches: str
    seeded: bool = False
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    # tiny runs of the same commands, so lazy imports and first-call costs
    # land in set-up rather than in the first timed operation
    warmup: tuple[tuple[str, ...], ...]
    # passes replayed untraced and then traced by a --trace 1 run; fixed so
    # that every count repeats exactly between traced runs
    trace_passes: int


def _solve(key, example, n, L, matches):
    argv = ("solve", "--example", str(example))
    if n is not None:
        argv += ("--n", str(n), "--L", str(L))
    return Op(key, argv, "solve", matches, expect={"example": example, "T": 0.5, "tol": 1e-3})


# criterion 6 direction caps are 256 (n=128) and 96 (n=256); the benchmark
# samples fewer per operation so that a run repeats each operation
TRANSPORT_CAP = {128: 16, 256: 4}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="evolve",
            why=(
                "Krylov side of method=auto (n>512): time goes to cauchy GMRES, grid FFT multipliers "
                "and examples coefficients; pdo and symbol are bypassed"
            ),
            ops=(
                _solve("solve-ex1-n1024", 1, None, None,
                       "criterion 2 settings (n=1024, L=40, dt=1e-3); ROADMAP baseline 'solve --example 1': 3.5 s"),
                _solve("solve-ex1-n2048", 1, 2048, 80, "criterion 2 tolerance on a doubled box"),
                _solve("solve-ex2-n2048", 2, 2048, 80, "criterion 2 tolerance, critical family on a doubled box"),
            ),
            warmup=(
                ("solve", "--example", "1", "--n", "128", "--L", "16", "--T", "0.01", "--method", "krylov"),
                ("solve", "--example", "2", "--n", "128", "--L", "16", "--T", "0.01", "--method", "krylov"),
            ),
            trace_passes=1,
        ),
        Workload(
            name="dense",
            why=(
                "dense n x n matrices at n<=512 (plain dense route and conjugated route): time goes to pdo, "
                "symbol.lambda_on_grid and LAPACK; GMRES and transport are bypassed"
            ),
            ops=(
                Op("energy-ex1", ("energy", "--example", "1"), "energy",
                   "ROADMAP baseline 'energy': 1.5 s"),
                Op("energy-ex2", ("energy", "--example", "2"), "energy", "energy on the critical family"),
                _solve("solve-ex1-n512", 1, 512, 40,
                       "ROADMAP item 3: dense 9.8 s against Krylov 1.3 s at n=512"),
                Op("energy-conj", ("energy", "--example", "1", "--conjugated", "--eig-stride", "5"),
                   "energy-conjugated",
                   "criterion 9 size; ROADMAP baseline 'energy --conjugated --eig-stride 5': 2.6 s"),
                Op("energy-conj-n512",
                   ("energy", "--example", "1", "--conjugated", "--n", "512", "--L", "15", "--h", "48",
                    "--dt", "0.0125", "--eig-stride", "5"),
                   "energy-conjugated", "criterion 8, largest lattice"),
                # the probe seed stays at the acceptance gate's 0: see NOTES.md
                Op("conj-check", ("conjugation-check",), "conjugation",
                   "criterion 7 (n=256); ROADMAP baseline 'conjugation-check': 0.9 s"),
                Op("conj-check-n512", ("conjugation-check", "--n", "512"), "conjugation", "criterion 7 (n=512)"),
            ),
            warmup=(
                ("energy", "--example", "1", "--n", "64", "--L", "10", "--T", "0.01"),
                ("energy", "--example", "1", "--conjugated", "--n", "128", "--L", "15", "--h", "12",
                 "--dt", "0.0125", "--eig-stride", "5"),
                ("conjugation-check", "--n", "64"),
            ),
            trace_passes=1,
        ),
        Workload(
            name="transport",
            why=(
                "2-D transport sign check on criterion 6 lattices over seeded direction samples: time goes to "
                "symbol._profile_integral; pdo and cauchy are bypassed"
            ),
            ops=tuple(
                Op(f"symbol-check-2d-n{n}",
                   ("symbol-check", "--dim", "2", "--n", str(n), "--L", "10", "--h", "2", "--cap", str(cap)),
                   "transport",
                   f"criterion 6 lattice n={n}; ROADMAP baseline 'symbol-check --dim 2': 28.6 s at n=128, cap 256",
                   seeded=True, expect={"directions": cap})
                for n, cap in TRANSPORT_CAP.items()
            ),
            warmup=(("symbol-check", "--dim", "2", "--n", "32", "--L", "5", "--cap", "2"),),
            trace_passes=2,
        ),
        Workload(
            name="checks",
            why=(
                "the light commands at their defaults, repeated: per-command overhead of cli parsing, report and "
                "CSV writing, svgplot, examples checks and gsnorm"
            ),
            ops=(
                Op("verify-1", ("verify-example", "--id", "1"), "verify", "criterion 1 residuals"),
                Op("verify-2", ("verify-example", "--id", "2", "--T", "1.0"), "verify",
                   "criteria 1 and 4 (critical loss at t=1)", expect={"critical_T": 1.0}),
                Op("verify-3", ("verify-example", "--id", "3"), "verify", "criterion 1 residuals"),
                Op("sharpness", ("sharpness",), "sharpness", "criterion 5"),
                Op("norm-sweep", ("norm-sweep",), "norm-sweep", "criterion 3, first clause"),
                Op("symbol-check-1d", ("symbol-check",), "transport", "1-D transport branch",
                   expect={"directions": 1}),
            ),
            warmup=(
                ("verify-example", "--id", "1"),
                ("sharpness",),
                ("norm-sweep",),
                ("symbol-check",),
            ),
            trace_passes=20,
        ),
    )
}


def passes(workload: Workload, seed: int):
    """Endless passes over the workload: each pass is every operation once,
    in an order drawn from the seed, paired with the --seed it receives
    (None for operations that take no seed)."""
    rng = random.Random(seed)
    while True:
        order = list(workload.ops)
        rng.shuffle(order)
        yield [(op, rng.randrange(2**31) if op.seeded else None) for op in order]


def cli_argv(op: Op, op_seed: int | None, out_dir) -> list[str]:
    argv = ["--out", str(out_dir), "--threads", "1"]
    if op_seed is not None:
        argv += ["--seed", str(op_seed)]
    return argv + list(op.argv)
