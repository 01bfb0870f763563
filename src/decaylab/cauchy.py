"""Time integration of first-order-in-time dispersive problems.

The evolution is u_t = G(t) u + f with generator
G(t) = i Lap - sum_j a_j(t, x) d_j - b(t, x), integrated by the
Crank-Nicolson rule

    (I - dt/2 G(t+dt)) u+ = (I + dt/2 G(t)) u + dt f(t + dt/2)

which is exactly unitary whenever G is skew and second-order accurate in dt.
Small runs solve the dense linear system directly; large ones apply G
through FFT multipliers and solve each step with restarted GMRES to well
below the time-discretization error.

A second route integrates the weighted unknown v = E(t) u, where
E(t) = diag(e^(k(t) w(x))) E0 conjugates by the phase weight: E0 is the
direct quantization of e^lam (time-independent) and the time part enters
only through the diagonal.  The conjugated generator is then

    G_v(t) = S(t) * (E0 G(t) E0^-1) + k'(t) diag(w),

with S(t)[i, j] = e^(k(t)(w_i - w_j)) acting entrywise, so each step costs
two dense multiplications plus the solve.  Energy accounting, a boundary
contamination monitor, and an empirical decay-loss classifier live here too.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import Grid, StateVector, apply_multiplier, sample
from .gsnorm import GsIndices, gs_norm_ex
from .pdo import DenseOp, WeightPair, assemble_dense, hermitian_min_eig
# bench/tracing.py patches these two here, so they stay imported though unused
from .pdo import inverse, power_iteration_norm  # noqa: F401
from .symbol import ConjugationSchedule, LambdaParams, lambda_on_grid

__all__ = [
    "Problem",
    "EnergyTrace",
    "SolveResult",
    "ConjugatedResult",
    "ConjugatedGenerator",
    "solve",
    "solve_conjugated",
    "gronwall_check",
    "estimate_loss_delta",
]


@dataclass(frozen=True)
class Problem:
    """Data of one evolution problem.

    a is one coefficient callable (t, x) -> array per axis, b and f are
    (t, x) -> array (f may be None for a homogeneous problem), g is the
    initial state (x) -> array.  sigma is the coefficient growth index,
    s0 the decay index of the class the data is measured in; both are
    recorded for reports and classification, not used by the stepper.
    """

    dim: int
    sigma: float
    s0: float
    a: tuple
    b: Callable | None
    f: Callable | None
    g: Callable
    T: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not (0.0 < self.sigma < 1.0):
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")
        if not (self.s0 > 1.0):
            raise ValueError(f"s0 must be > 1, got {self.s0}")
        if not (self.T > 0.0):
            raise ValueError(f"T must be > 0, got {self.T}")
        if len(self.a) != self.dim:
            raise ValueError(f"need one first-order coefficient per axis, got {len(self.a)}")


@dataclass
class EnergyTrace:
    """Sampled norms along a run: strictly increasing times, one column per
    norm label, plus the relative boundary magnitude of each sample."""

    labels: tuple[str, ...]
    times: list[float] = field(default_factory=list)
    columns: dict[str, list[float]] = field(default_factory=dict)
    boundary: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        for lab in self.labels:
            self.columns.setdefault(lab, [])

    def add(self, t: float, values: dict[str, float], boundary_mag: float) -> None:
        if self.times and not (t > self.times[-1]):
            raise ValueError(f"sample times must increase strictly, got {t} after {self.times[-1]}")
        if set(values) != set(self.labels):
            raise ValueError("sample labels do not match the trace columns")
        self.times.append(float(t))
        for lab in self.labels:
            self.columns[lab].append(float(values[lab]))
        self.boundary.append(float(boundary_mag))

    def header(self) -> list[str]:
        return ["t", *self.labels, "boundary_mag"]

    def rows(self) -> list[list[float]]:
        return [
            [self.times[i], *(self.columns[lab][i] for lab in self.labels), self.boundary[i]]
            for i in range(len(self.times))
        ]


def _edge_fraction(values: np.ndarray) -> float:
    amax = float(np.max(np.abs(values)))
    if amax == 0.0:
        return 0.0
    if values.ndim == 1:
        edge = max(abs(values[0]), abs(values[-1]))
    else:
        edge = max(
            float(np.max(np.abs(values[0, :]))),
            float(np.max(np.abs(values[-1, :]))),
            float(np.max(np.abs(values[:, 0]))),
            float(np.max(np.abs(values[:, -1]))),
        )
    return float(edge) / amax


class _GeneratorPieces:
    """Frequency multipliers and cached dense blocks of G(t)."""

    def __init__(self, problem: Problem, grid: Grid):
        if problem.dim != grid.dim:
            raise ValueError("problem and grid dimensions differ")
        self.problem = problem
        self.grid = grid
        self.lap_mult = -(grid.xi_norm**2)
        dm = []
        for ax in range(grid.dim):
            m = 1j * grid.xi_mesh[ax].astype(np.complex128)
            m[grid.nyquist_mask[ax]] = 0.0
            dm.append(m)
        self.deriv_mults = dm
        self._dense_lap = None
        self._dense_derivs = None

    def coeff(self, which: str, t: float) -> np.ndarray | None:
        fn = self.problem.b if which == "b" else self.problem.f
        if fn is None:
            return None
        return np.asarray(fn(t, *self.grid.x_mesh), dtype=np.complex128)

    def a_coeff(self, ax: int, t: float) -> np.ndarray | None:
        fn = self.problem.a[ax]
        if fn is None:
            return None
        return np.asarray(fn(t, *self.grid.x_mesh), dtype=np.complex128)

    def apply(self, t: float, u: StateVector) -> np.ndarray:
        """G(t) u through FFT multipliers; returns values on grid.shape."""
        out = 1j * apply_multiplier(u, self.lap_mult).values
        for ax in range(self.grid.dim):
            aco = self.a_coeff(ax, t)
            if aco is not None:
                out = out - aco * apply_multiplier(u, self.deriv_mults[ax]).values
        bco = self.coeff("b", t)
        if bco is not None:
            out = out - bco * u.values
        return out

    def _dense_blocks(self):
        if self._dense_lap is None:
            self._dense_lap = assemble_dense(self.grid, "multiplier", self.lap_mult.astype(np.complex128)).matrix
            self._dense_derivs = [
                assemble_dense(self.grid, "multiplier", m).matrix for m in self.deriv_mults
            ]
        return self._dense_lap, self._dense_derivs

    def dense(self, t: float) -> np.ndarray:
        lap, derivs = self._dense_blocks()
        mat = 1j * lap
        for ax in range(self.grid.dim):
            aco = self.a_coeff(ax, t)
            if aco is not None:
                mat = mat - aco.ravel()[:, None] * derivs[ax]
        bco = self.coeff("b", t)
        if bco is not None:
            mat = mat - np.diag(bco.ravel())
        return mat


def _cn_step(eye: np.ndarray, g_now: np.ndarray, g_next: np.ndarray, dt: float, vals: np.ndarray, src: np.ndarray | None) -> np.ndarray:
    """One dense Crank-Nicolson step on flattened values; src is the source
    at the midpoint."""
    rhs = (eye + 0.5 * dt * g_now) @ vals
    if src is not None:
        rhs = rhs + dt * src
    return np.linalg.solve(eye - 0.5 * dt * g_next, rhs)


def _gmres(apply_a, b: np.ndarray, x0: np.ndarray, *, tol: float = 1e-12, restart: int = 60, max_restarts: int = 25) -> tuple[np.ndarray, bool]:
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), True
    x = x0.copy()
    for _ in range(max_restarts):
        r = b - apply_a(x)
        beta = float(np.linalg.norm(r))
        if beta <= tol * bnorm:
            return x, True
        q = [r / beta]
        hess = np.zeros((restart + 1, restart), dtype=np.complex128)
        y = None
        jlast = 0
        for j in range(restart):
            w = apply_a(q[j])
            for i in range(j + 1):
                hess[i, j] = np.vdot(q[i], w)
                w = w - hess[i, j] * q[i]
            hnorm = float(np.linalg.norm(w))
            hess[j + 1, j] = hnorm
            jlast = j
            e1 = np.zeros(j + 2, dtype=np.complex128)
            e1[0] = beta
            y, *_ = np.linalg.lstsq(hess[: j + 2, : j + 1], e1, rcond=None)
            res = float(np.linalg.norm(e1 - hess[: j + 2, : j + 1] @ y))
            if res <= tol * bnorm or hnorm <= 1e-14 * beta:
                break
            q.append(w / hnorm)
        qm = np.stack(q[: jlast + 1], axis=1)
        x = x + qm @ y
        r = b - apply_a(x)
        if float(np.linalg.norm(r)) <= tol * bnorm:
            return x, True
    return x, float(np.linalg.norm(b - apply_a(x))) <= 100 * tol * bnorm


@dataclass(frozen=True)
class SolveResult:
    u: StateVector
    trace: EnergyTrace
    report: dict


def _steps_for(T: float, dt: float) -> int:
    nsteps = int(round(T / dt))
    if nsteps < 1 or abs(nsteps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"dt={dt} does not divide T={T} into whole steps")
    return nsteps


def _trace_values(u: StateVector, indices: Sequence[GsIndices]) -> dict[str, float]:
    return {idx.label(): gs_norm_ex(u, idx).value for idx in indices}


def solve(problem: Problem, grid: Grid, dt: float, *, indices: Sequence[GsIndices] = (), sample_every: int | None = None, method: str = "auto", boundary_factor: float = 100.0, boundary_floor: float = 1e-8) -> SolveResult:
    """Integrate the problem on [0, T].

    method "dense" factors the stepping system directly, "krylov" applies
    G through FFTs and solves each step iteratively, "auto" picks dense
    for small grids.  The boundary monitor records the relative edge
    magnitude at every sample and aborts the run when it exceeds
    max(boundary_floor, boundary_factor * initial fraction): a periodic
    box only represents the whole-space problem while the state stays
    negligible at the edge.
    """
    pieces = _GeneratorPieces(problem, grid)
    nsteps = _steps_for(problem.T, dt)
    if method == "auto":
        method = "dense" if grid.node_count <= 512 else "krylov"
    if method not in ("dense", "krylov"):
        raise ValueError(f"unknown method {method!r}")
    stride = sample_every if sample_every is not None else max(1, nsteps // 50)

    u = sample(grid, problem.g)
    labels = tuple(idx.label() for idx in indices)
    trace = EnergyTrace(labels=labels)
    frac0 = _edge_fraction(u.values)
    threshold = max(boundary_floor, boundary_factor * frac0)
    trace.add(0.0, _trace_values(u, indices), frac0)

    aborted = False
    reason = None
    g_now_dense = pieces.dense(0.0) if method == "dense" else None
    eye = np.eye(grid.node_count, dtype=np.complex128) if method == "dense" else None

    t = 0.0
    for k in range(nsteps):
        t_next = (k + 1) * dt
        fmid = pieces.coeff("f", t + 0.5 * dt)
        if method == "dense":
            g_next_dense = pieces.dense(t_next)
            src = None if fmid is None else fmid.ravel()
            vals = _cn_step(eye, g_now_dense, g_next_dense, dt, u.values.ravel(), src)
            u = StateVector(grid, vals.reshape(grid.shape))
            g_now_dense = g_next_dense
        else:
            gu = pieces.apply(t, u)
            rhs = u.values + 0.5 * dt * gu
            if fmid is not None:
                rhs = rhs + dt * fmid

            def apply_a(vflat: np.ndarray) -> np.ndarray:
                st = StateVector(grid, vflat.reshape(grid.shape))
                return vflat - 0.5 * dt * pieces.apply(t_next, st).ravel()

            vals, ok = _gmres(apply_a, rhs.ravel(), u.values.ravel())
            if not ok:
                aborted = True
                reason = f"iterative step solve stalled at t={t_next:.6g}"
                break
            u = StateVector(grid, vals.reshape(grid.shape))
        t = t_next
        if (k + 1) % stride == 0 or k + 1 == nsteps:
            frac = _edge_fraction(u.values)
            trace.add(t, _trace_values(u, indices), frac)
            if frac > threshold:
                aborted = True
                reason = (
                    f"boundary contamination {frac:.3e} exceeded threshold {threshold:.3e} at t={t:.6g}"
                )
                break

    report = {
        "n": grid.n,
        "L": grid.L,
        "dim": grid.dim,
        "dt": dt,
        "T": problem.T,
        "steps_taken": int(round(t / dt)),
        "method": method,
        "aborted": aborted,
        "abort_reason": reason,
        "boundary_threshold": threshold,
        "boundary_initial": frac0,
        "boundary_final": trace.boundary[-1],
        "final_l2": u.l2_norm(),
        "final_time": t,
    }
    return SolveResult(u=u, trace=trace, report=report)


@dataclass(frozen=True)
class ConjugatedResult:
    u: StateVector
    v: StateVector
    trace: EnergyTrace
    eig_samples: list
    report: dict


class ConjugatedGenerator:
    """G_v(t) of the weighted unknown v = E(t) u (module docstring) for one
    weight pair and schedule, with w = <x>_h^(1-sigma).  E0 and its inverse
    are held for the run; E0 must pass the conditioning cap."""

    def __init__(self, problem: Problem, pair: WeightPair, params: LambdaParams, schedule: ConjugationSchedule, *, cond_cap: float = 1e12):
        self.pieces = _GeneratorPieces(problem, pair.grid)
        self.e0 = pair.e0.matrix
        self.e0inv = pair.inverse(cond_cap=cond_cap).matrix
        self.schedule = schedule
        self.w = (np.sqrt(params.h**2 + pair.grid.x_norm**2) ** (1.0 - params.sigma)).ravel()

    def at(self, t: float) -> np.ndarray:
        """G_v(t) as a dense matrix."""
        core = self.e0 @ self.pieces.dense(t) @ self.e0inv
        s_fac = np.exp(self.schedule.k(t) * (self.w[:, None] - self.w[None, :]))
        return s_fac * core + np.diag(self.schedule.kprime(t) * self.w)

    def weight(self, t: float) -> np.ndarray:
        """e^(k(t) w) per node: the diagonal factor of E(t)."""
        return np.exp(self.schedule.k(t) * self.w)

    def min_eig(self, gv: np.ndarray) -> float:
        """Smallest eigenvalue of the Hermitian part of i Lap - gv."""
        lap, _ = self.pieces._dense_blocks()
        return hermitian_min_eig(DenseOp(self.pieces.grid, 1j * lap - gv, "composite"))


def solve_conjugated(problem: Problem, grid: Grid, dt: float, params: LambdaParams, schedule: ConjugationSchedule, *, indices: Sequence[GsIndices] = (), eig_stride: int = 0, sample_every: int | None = None, remainder_cap: float = 1.0, cond_cap: float = 1e12, nnode: int = 24, seed: int = 0) -> ConjugatedResult:
    """Integrate the weighted unknown v = E(t) u and undo the weight.

    E(t) = diag(e^(k(t) w)) E0 with w = <x>_h^(1-sigma) and E0 the direct
    quantization of e^lam.  The run refuses to start unless the
    quantization remainder of the weight is small (below remainder_cap)
    and E0 passes the conditioning cap.  With eig_stride > 0, the smallest
    eigenvalue of the Hermitian part of i Lap - G_v is recorded every that
    many steps; its uniform lower bound is the discrete form of the energy
    inequality the weight is designed to produce.  The edge fraction of v
    is recorded at every sample; unlike solve, this route never aborts.
    """
    if abs(schedule.T - problem.T) > 1e-12:
        raise ValueError("schedule horizon differs from problem horizon")
    nsteps = _steps_for(problem.T, dt)
    stride = sample_every if sample_every is not None else max(1, nsteps // 50)

    pair = WeightPair(grid, lambda_on_grid(grid, params, nnode=nnode))
    rem = pair.remainder_norm(seed=seed)
    if not (rem < remainder_cap):
        raise ValueError(f"weight quantization remainder {rem:.3e} is not below {remainder_cap}")
    gen = ConjugatedGenerator(problem, pair, params, schedule, cond_cap=cond_cap)
    eye = np.eye(grid.node_count, dtype=np.complex128)

    gvals = sample(grid, problem.g).values.ravel()
    vflat = gen.weight(0.0) * (gen.e0 @ gvals)
    v = StateVector(grid, vflat.reshape(grid.shape))

    labels = tuple(idx.label() for idx in indices)
    trace = EnergyTrace(labels=labels)
    frac0 = _edge_fraction(v.values)
    trace.add(0.0, _trace_values(v, indices), frac0)

    eig_samples: list[dict] = []
    g_now = gen.at(0.0)
    if eig_stride > 0:
        eig_samples.append({"t": 0.0, "min_eig": gen.min_eig(g_now)})

    t = 0.0
    for k in range(nsteps):
        t_next = (k + 1) * dt
        g_next = gen.at(t_next)
        fmid = gen.pieces.coeff("f", t + 0.5 * dt)
        src = None if fmid is None else gen.weight(t + 0.5 * dt) * (gen.e0 @ fmid.ravel())
        vflat = _cn_step(eye, g_now, g_next, dt, v.values.ravel(), src)
        v = StateVector(grid, vflat.reshape(grid.shape))
        t = t_next
        if eig_stride > 0 and ((k + 1) % eig_stride == 0 or k + 1 == nsteps):
            eig_samples.append({"t": t, "min_eig": gen.min_eig(g_next)})
        if (k + 1) % stride == 0 or k + 1 == nsteps:
            trace.add(t, _trace_values(v, indices), _edge_fraction(v.values))
        g_now = g_next

    uflat = gen.e0inv @ (vflat / gen.weight(problem.T))
    u = StateVector(grid, uflat.reshape(grid.shape))
    report = {
        "n": grid.n,
        "L": grid.L,
        "dim": grid.dim,
        "dt": dt,
        "T": problem.T,
        "method": "conjugated-dense",
        "remainder_norm": rem,
        "min_eig_floor": min((e["min_eig"] for e in eig_samples), default=None),
        "final_l2_u": u.l2_norm(),
        "final_l2_v": v.l2_norm(),
    }
    return ConjugatedResult(u=u, v=v, trace=trace, eig_samples=eig_samples, report=report)


def gronwall_check(times, norms, source_norms=None) -> dict:
    """Discrete energy-inequality constant.

    C0 = max_t ||v(t)||^2 / (||v(0)||^2 + int_0^t ||f||^2), with the
    integral by the trapezoid rule.  A unitary homogeneous evolution gives
    exactly 1; a loss-free weighted estimate keeps it O(1) independent of
    resolution.
    """
    times = np.asarray(times, dtype=np.float64)
    norms = np.asarray(norms, dtype=np.float64)
    if times.ndim != 1 or times.shape != norms.shape or times.size < 2:
        raise ValueError("times and norms must be matching 1-d arrays with at least 2 samples")
    if norms[0] == 0.0:
        raise ValueError("initial norm vanishes; the ratio is undefined")
    if source_norms is None:
        src = np.zeros_like(norms)
    else:
        src = np.asarray(source_norms, dtype=np.float64)
        if src.shape != norms.shape:
            raise ValueError("source_norms must match norms in shape")
    denom = norms[0] ** 2 + np.concatenate(
        ([0.0], np.cumsum(0.5 * (src[1:] ** 2 + src[:-1] ** 2) * np.diff(times)))
    )
    ratios = norms**2 / denom
    i = int(np.argmax(ratios))
    return {"C0": float(ratios[i]), "argmax_t": float(times[i]), "ratios": ratios.tolist()}


def estimate_loss_delta(phi, t: float, delta_grid, *, sigma: float, s: float, rho2_g: float = 1.0, m2: float = 0.0, L_max: float = 80.0, npts: int = 1024, tol: float = 1e-7) -> dict:
    """Classify each candidate decay loss delta as convergent or divergent.

    phi(t, x) is the log of the exact state magnitude.  For each delta the
    weighted-tail exponent w(x) = Re phi(t, x) + (rho2_g - delta) <x>^(1/s)
    is fitted on the outer region of the largest box against the powers
    <x>^(1-sigma) and <x>^(1/s) (a single combined coefficient when the two
    coincide).  The dominant-power coefficient decides the verdict; ties
    fall to the lower power and then to the polynomial criterion
    2 m2 < -1.  infimal_delta is the smallest convergent candidate.
    """
    p = 1.0 - sigma
    q = 1.0 / s
    x = np.linspace(max(4.0, 0.25 * L_max), L_max, npts)
    bx = np.sqrt(1.0 + x * x)
    base = np.real(np.asarray(phi(t, x), dtype=np.complex128))
    critical = abs(p - q) < 1e-9

    def poly_verdict() -> str:
        return "convergent" if 2.0 * m2 < -1.0 else "divergent"

    classification: list[str] = []
    fits: list[dict] = []
    for delta in delta_grid:
        wvals = base + (rho2_g - float(delta)) * bx**q
        if critical:
            cols = np.stack([bx**q, np.ones_like(x)], axis=1)
            coef, *_ = np.linalg.lstsq(cols, wvals, rcond=None)
            c_hi, c_lo = float(coef[0]), None
        else:
            cols = np.stack([bx**p, bx**q, np.ones_like(x)], axis=1)
            coef, *_ = np.linalg.lstsq(cols, wvals, rcond=None)
            if p > q:
                c_hi, c_lo = float(coef[0]), float(coef[1])
            else:
                c_hi, c_lo = float(coef[1]), float(coef[0])
        if c_hi > tol:
            verdict = "divergent"
        elif c_hi < -tol:
            verdict = "convergent"
        elif c_lo is not None and c_lo > tol:
            verdict = "divergent"
        elif c_lo is not None and c_lo < -tol:
            verdict = "convergent"
        else:
            verdict = poly_verdict()
        classification.append(verdict)
        fits.append({"delta": float(delta), "dominant_coef": c_hi, "secondary_coef": c_lo})

    infimal = None
    for d, v in zip(delta_grid, classification):
        if v == "convergent":
            infimal = float(d) if infimal is None else min(infimal, float(d))
    return {
        "delta_grid": [float(d) for d in delta_grid],
        "classification": classification,
        "infimal_delta": infimal,
        "fits": fits,
        "critical": critical,
        "powers": {"growth": p, "decay": q},
    }
