"""Time integration of first-order-in-time dispersive problems.

The evolution is u_t = G(t) u + f with generator
G(t) = i Lap - sum_j a_j(t, x) d_j - b(t, x), integrated by the
Crank-Nicolson rule

    (I - dt/2 G(t+dt)) u+ = (I + dt/2 G(t)) u + dt f(t + dt/2)

which is exactly unitary whenever G is skew and second-order accurate in dt.
Each step solves for u+ with restarted GMRES to a relative residual of
1e-12, well below the time-discretization error, right-preconditioned by
the free step P = (I - dt/2 i Lap)^-1.  Since (I - dt/2 i Lap) P = I, the
Laplacian drops out of the preconditioned apply, which needs one multiplier
per coefficient.  GMRES takes u+ and (I - dt/2 G(t+dt)) u+ from its Arnoldi
relation, with no apply after its last Arnoldi step, so the next right-hand
side is 2 u+ minus that product, with no apply of its own; only the first
step applies G through FFT multipliers for its right-hand side.  Each GMRES
starts from the quadratic extrapolation of the last three steps'
corrections, which leaves its first residual and about one Arnoldi apply
per step at dt=1e-3.  At each of the about 50 trace samples one more apply
checks the step's true residual and replaces the relation's product.  The
dense linear solve of the same step is kept as a reference route.

A second route integrates the weighted unknown v = E(t) u, where
E(t) = diag(e^(k(t) w(x))) E0 conjugates by the phase weight: E0 is the
direct quantization of e^lam (time-independent) and the time part enters
only through the diagonal.  The conjugated generator is then

    G_v(t) = W (E0 G(t) E0^-1) W^-1 + k'(t) diag(w),

the diagonal similarity by W = diag(e^(k(t) w)), read once per time
level.  So G_v applies matrix-free, with E0 and E0^-1 applied in
O(n^d m) around the FFT apply, through the rank-m factors U and V_S and the
m x m core^-1 (m open frequency nodes, pdo.WeightPair).  E0 is
close to the identity, so G_v differs from G by lower-order terms and the
same free step P preconditions its GMRES step solve; G_v itself, two
diagonal scalings of E0 G(t) E0^-1, is built only for eigenvalue samples.
Both routes share one Crank-Nicolson loop, its step solver and its
boundary contamination monitor, which watches u.  Energy accounting and
an empirical decay-loss classifier live here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import Grid, StateVector, _derivative_multiplier, apply_multiplier, sample
from .gsnorm import GsIndices, gs_norm_ex
from .pdo import _BLOCK, DenseOp, WeightPair, _check_eig_size, _check_size, _circulant_view, hermitian_min_eig
# unused; bench/tracing.py patches them here until its span list drops them (ROADMAP item 1)
from .pdo import assemble_dense, inverse, power_iteration_norm  # noqa: F401
from .symbol import ConjugationSchedule, LambdaParams, lambda_on_grid

__all__ = [
    "Problem",
    "EnergyTrace",
    "SolveResult",
    "ConjugatedGenerator",
    "conjugated_min_eig",
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
    mag = np.abs(values)
    amax = float(mag.max())
    if amax == 0.0:
        return 0.0
    edge = max(float(np.take(mag, (0, -1), axis=ax).max()) for ax in range(mag.ndim))
    return edge / amax


class _GeneratorPieces:
    """G(t) of the plain unknown u: frequency multipliers for apply, cached
    dense blocks for dense.  It shares with ConjugatedGenerator the five
    methods the Crank-Nicolson loop steps with: apply(t, v),
    preconditioned_apply(t, h, y), dense(t), source(t) and physical(t, v)."""

    def __init__(self, problem: Problem, grid: Grid):
        if problem.dim != grid.dim:
            raise ValueError("problem and grid dimensions differ")
        self.problem = problem
        self.grid = grid
        self.lap_mult = -(grid.xi_norm**2)
        self.deriv_mults = [_derivative_multiplier(grid, ax) for ax in range(grid.dim)]
        self._dense_ilap = None
        self._dense_derivs = None
        self._precond = None

    def _sample(self, fn: Callable | None, t: float) -> np.ndarray | None:
        if fn is None:
            return None
        return np.asarray(fn(t, *self.grid.x_mesh), dtype=np.complex128)

    def apply(self, t: float, u: StateVector) -> np.ndarray:
        """G(t) u through FFT multipliers; returns values on grid.shape."""
        out = 1j * apply_multiplier(u, self.lap_mult).values
        for ax in range(self.grid.dim):
            aco = self._sample(self.problem.a[ax], t)
            if aco is not None:
                out -= aco * apply_multiplier(u, self.deriv_mults[ax]).values
        bco = self._sample(self.problem.b, t)
        if bco is not None:
            out -= bco * u.values
        return out

    def free_step(self, h: float) -> tuple[np.ndarray, list[np.ndarray]]:
        """(P, dP): the free step P = 1 / (1 + i h |xi|^2) and its product
        with each derivative multiplier, cached for the last h."""
        if self._precond is None or self._precond[0] != h:
            p = 1.0 / (1.0 + 1j * h * self.grid.xi_norm**2)
            self._precond = (h, p, [m * p for m in self.deriv_mults])
        return self._precond[1], self._precond[2]

    def preconditioned_apply(self, t: float, h: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A P y, P y) for a flat y: A = I - h G(t), P the free step, so
        A P y = y + h (a . (dP) y + b P y), no Laplacian.  The sum builds up
        in the FFT outputs made here, never in a coefficient sample."""
        p, dps = self.free_step(h)
        st = StateVector(self.grid, y.reshape(self.grid.shape))
        py = apply_multiplier(st, p).values
        lower = None
        for ax in range(self.grid.dim):
            aco = self._sample(self.problem.a[ax], t)
            if aco is not None:
                term = apply_multiplier(st, dps[ax]).values
                term *= aco
                lower = term if lower is None else np.add(lower, term, out=lower)
        bco = self._sample(self.problem.b, t)
        if bco is not None:
            term = bco * py
            lower = term if lower is None else np.add(lower, term, out=lower)
        if lower is None:
            return y.copy(), py.ravel()
        lower *= h
        lower += st.values
        return lower.ravel(), py.ravel()

    def source(self, t: float) -> np.ndarray | None:
        """f(t) on grid.shape, or None for a homogeneous problem."""
        return self._sample(self.problem.f, t)

    def physical(self, t: float, u: StateVector) -> np.ndarray:
        """The state the boundary monitor watches: u itself."""
        return u.values

    def _dense_blocks(self):
        """(i Lap, [d_ax]) as _circulant_view views of shape grid.shape * 2:
        O(n^d) storage each, built on first use.  The grid is held to the
        dense size cap here, before dense(t) allocates n^d x n^d."""
        if self._dense_ilap is None:
            _check_size(self.grid)
            self._dense_ilap = _circulant_view(self.grid, 1j * np.fft.ifftn(self.lap_mult))
            self._dense_derivs = [_circulant_view(self.grid, np.fft.ifftn(m)) for m in self.deriv_mults]
        return self._dense_ilap, self._dense_derivs

    def dense(self, t: float) -> np.ndarray:
        """G(t) = i Lap - a . d - b as a dense matrix in one n^d x n^d
        allocation: a copy of i Lap, each a-term subtracted in slabs of about
        _BLOCK rows, then b off the diagonal."""
        ilap, derivs = self._dense_blocks()
        g = self.grid
        mat = np.array(ilap, order="C")
        step = max(1, _BLOCK * g.n // g.node_count)  # leading-axis indices per slab
        for ax in range(g.dim):
            aco = self._sample(self.problem.a[ax], t)
            if aco is not None:
                aco = aco.reshape(g.shape + (1,) * g.dim)
                for lo in range(0, g.n, step):
                    mat[lo : lo + step] -= aco[lo : lo + step] * derivs[ax][lo : lo + step]
        mat = mat.reshape(g.node_count, g.node_count)
        bco = self._sample(self.problem.b, t)
        if bco is not None:
            mat.flat[:: mat.shape[0] + 1] -= bco.ravel()
        return mat


_GMRES_TOL = 1e-12

# weights of the last 1, 2 or 3 corrections, newest first, in the polynomial
# extrapolation that warm-starts a step solve: d_k; 2 d_k - d_(k-1);
# 3 d_k - 3 d_(k-1) + d_(k-2)
_PREDICTOR = ((), (1.0,), (2.0, -1.0), (3.0, -3.0, 1.0))


def _combine(coefs: list[complex], vecs: list[np.ndarray]) -> np.ndarray:
    """sum_j coefs[j] vecs[j] over the leading len(coefs) vectors."""
    out = coefs[0] * vecs[0]
    for c, v in zip(coefs[1:], vecs[1:]):
        out += c * v
    return out


def _gmres(apply_ap, b: np.ndarray, y0: np.ndarray, *, tol: float = _GMRES_TOL, restart: int = 60, max_restarts: int = 25) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Right-preconditioned restarted GMRES (Saad & Schultz 1986; Saad 2003,
    ch. 9) with complex Givens rotations, for A x = b with x = P y.

    apply_ap(y) returns (A P y, P y); lambda y: (A @ y, y) is P = I.  Each
    Arnoldi step rotates the new Hessenberg column to triangular form, so
    |g[j+1]| is the residual estimate, and a cycle ends in one triangular
    back substitution for z.  It makes no apply after its Arnoldi steps:
    the Arnoldi relation A P Q_k = Q_(k+1) Hbar_k (Saad 2003, sec. 6.5)
    gives x = P y0 + sum_j z_j P q_j from the P q_j the Arnoldi applies
    return, and the residual r = b - A x = g[k] Q_(k+1) Omega^H e_(k+1)
    from the rotations Omega; the next cycle restarts from r.  Returns
    (x, relres, y, A x): x = P y, the relative residual |b - A x| / |b| of
    that recurrence, y, and A x = b - r.  They equal a fresh apply at y and
    its true residual up to roundoff.  A zero b returns zeros and no apply
    is made; a NaN residual ends it.  The Hessenberg entries, rotations, g
    and z are Python complex scalars, and the q_j and P q_j grow as lists, so a cycle of k Arnoldi
    steps allocates O(k) vectors, not (restart + 1) x n blocks; y0 is never
    written.
    """
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0, np.zeros_like(b), np.zeros_like(b)
    y = y0
    ap, x = apply_ap(y)
    r = b - ap
    relres = float(np.linalg.norm(r)) / bnorm
    for _ in range(max_restarts):
        if not relres > tol:  # converged, or NaN
            break
        beta = relres * bnorm
        q = [r * (1.0 / beta)]
        pq = []  # P q_j
        cols = []  # rotated Hessenberg columns, cols[j][i] = R[i, j] for i <= j
        rots = []  # (c, s) of [[conj c, s], [-s, c]], s real
        g = [complex(beta)]
        for j in range(restart):
            w, pqj = apply_ap(q[j])
            pq.append(pqj)
            col = []
            for qi in q:
                hij = complex(np.vdot(qi, w))
                w = w - hij * qi
                col.append(hij)
            hnorm = float(np.linalg.norm(w))
            q.append(w * (1.0 / hnorm) if hnorm > 0.0 else w)
            for i, (c, sn) in enumerate(rots):
                col[i], col[i + 1] = c.conjugate() * col[i] + sn * col[i + 1], c * col[i + 1] - sn * col[i]
            # the new rotation maps (h_jj, hnorm) to (rho, 0)
            rho = math.hypot(abs(col[j]), hnorm)
            c, sn = col[j] / rho, hnorm / rho
            rots.append((c, sn))
            col[j] = complex(rho)
            cols.append(col)
            g.append(-sn * g[j])
            g[j] = c.conjugate() * g[j]
            if not abs(g[j + 1]) > tol * bnorm or hnorm <= 1e-14 * beta:
                break
        k = j + 1
        # back substitution: cheaper than a general solve at the usual k of 1-2
        z = [0j] * k
        for i in reversed(range(k)):
            z[i] = (g[i] - sum(cols[m][i] * z[m] for m in range(i + 1, k))) / cols[i][i]
        y = y + _combine(z, q)
        x = x + _combine(z, pq)
        # Omega^H e_(k+1) g[k]: the rotations undone, last first
        e = [0j] * k + [g[k]]
        for i in reversed(range(k)):
            c, sn = rots[i]
            e[i], e[i + 1] = c * e[i] - sn * e[i + 1], sn * e[i] + c.conjugate() * e[i + 1]
        r = _combine(e, q)
        ap = b - r
        relres = float(np.linalg.norm(r)) / bnorm
    return x, relres, y, ap


@dataclass(frozen=True)
class SolveResult:
    u: StateVector
    trace: EnergyTrace
    report: dict


def _relres(b: np.ndarray, ab: np.ndarray) -> float:
    # |b - A x| / |b|, 0 for a zero b
    bnorm = float(np.linalg.norm(b))
    return float(np.linalg.norm(b - ab)) / bnorm if bnorm else 0.0


def _steps_for(T: float, dt: float) -> int:
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    nsteps = int(round(T / dt))
    if nsteps < 1 or abs(nsteps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"dt={dt} does not divide T={T} into whole steps")
    return nsteps


def _trace_values(u: StateVector, indices: Sequence[GsIndices]) -> dict[str, float]:
    return {idx.label(): gs_norm_ex(u, idx).value for idx in indices}


def _crank_nicolson(gen, v: StateVector, dt: float, nsteps: int, *, method: str, indices: Sequence[GsIndices]):
    """The Crank-Nicolson loop of both routes; gen is a _GeneratorPieces or a
    ConjugatedGenerator.

    With h = dt/2 and A(t) = I - h G(t), the right-hand side
    (I + h G(t)) v = 2 v - A(t) v reuses A(t) v from the step that produced
    v: the A x its GMRES solve returns, or the dense matrix times the
    solution; only step 0 calls gen.apply.  "krylov" runs GMRES on
    gen.preconditioned_apply(t+dt, h, y) from
    y0 = rhs + 3 d_k - 3 d_(k-1) + d_(k-2), the quadratic through the last
    three preconditioned corrections d = y - rhs (rhs, rhs + d_1 and
    rhs + 2 d_2 - d_1 at the first three steps; A P = I + O(dt)), and aborts
    when a step's relative residual stays above 1e-12; "dense", the
    reference, solves against A(t+dt) = I - h gen.dense(t+dt).  About 50
    samples trace the norms of v and the edge fraction of gen.physical(t, v);
    the run aborts when that exceeds max(1e-8, 100 * initial fraction), since
    a periodic box only represents the whole-space problem while the state
    stays negligible at the edge.  On "krylov", each sampled step first
    applies A P at its y: the output becomes the step's v and A v, which
    resets the relation's roundoff drift.  A true relative residual above
    1e-12 gets one more GMRES solve from that y, to 5e-13, and a second
    check (check_retries counts them); the run aborts only when that check
    fails too (worst_true_relres, the worst deciding check; a zero
    right-hand side counts as 0).  Checks and retries count in the applies
    per step.  Each gate counts NaN as failed, and NaN as the worst value.
    Returns v, the trace and the shared report keys.
    """
    grid = v.grid
    stride = max(1, nsteps // 50)
    trace = EnergyTrace(labels=tuple(idx.label() for idx in indices))
    frac0 = _edge_fraction(gen.physical(0.0, v))
    threshold = max(1e-8, 100.0 * frac0)
    trace.add(0.0, _trace_values(v, indices), frac0)

    aborted = False
    reason = None
    applies: list[int] = []
    worst_relres = 0.0
    worst_true_relres = 0.0
    check_retries = 0

    h = 0.5 * dt
    av = None  # (I - h G(t)) v, formed by the step solve that produced v
    ds: list[np.ndarray] = []  # y - rhs of the last three GMRES solves, newest first
    t = 0.0
    for k in range(nsteps):
        t_next = (k + 1) * dt
        sampled = (k + 1) % stride == 0 or k + 1 == nsteps
        if av is None:
            rhs = (v.values + h * gen.apply(t, v)).ravel()
        else:
            rhs = 2.0 * v.values.ravel() - av
        fmid = gen.source(t + h)
        if fmid is not None:
            rhs = rhs + dt * fmid.ravel()
        if method == "dense":
            # I - h G(t+dt) in dense(t)'s own storage: one n^d x n^d array
            amat = gen.dense(t_next)
            amat *= -h
            amat.flat[:: grid.node_count + 1] += 1.0
            vals = np.linalg.solve(amat, rhs)
            av = amat @ vals
            del amat  # free it before the next step forms its own n x n matrix
        else:
            applies.append(0)

            def apply_ap(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                applies[-1] += 1
                return gen.preconditioned_apply(t_next, h, y)

            y0 = rhs
            for c, dk in zip(_PREDICTOR[len(ds)], ds):
                y0 = y0 + c * dk
            vals, relres, y, av = _gmres(apply_ap, rhs, y0)
            worst_relres = max(relres, worst_relres)  # max keeps a NaN first argument
            if not relres <= _GMRES_TOL:
                aborted = True
                what = "stalled" if math.isfinite(relres) else "hit a non-finite residual"
                reason = f"iterative step solve {what} at t={t_next:.6g}"
                break
            if sampled:
                # one real apply at y checks the recurrence and resets its drift
                av, vals = apply_ap(y)
                true_relres = _relres(rhs, av)
                if not true_relres <= _GMRES_TOL:
                    # the recurrence stops within roundoff of the gate: one
                    # more solve from the checked y, to half the gate
                    check_retries += 1
                    _, _, y, _ = _gmres(apply_ap, rhs, y, tol=0.5 * _GMRES_TOL)
                    av, vals = apply_ap(y)
                    true_relres = _relres(rhs, av)
                worst_true_relres = max(true_relres, worst_true_relres)
                if not true_relres <= _GMRES_TOL:
                    aborted = True
                    reason = (
                        f"step solve's true residual {true_relres:.3e} exceeded {_GMRES_TOL:g} at t={t_next:.6g}"
                    )
                    break
            ds = [y - rhs, *ds[:2]]
        v = StateVector(grid, vals.reshape(grid.shape))
        t = t_next
        if sampled:
            frac = _edge_fraction(gen.physical(t, v))
            trace.add(t, _trace_values(v, indices), frac)
            if not frac <= threshold:
                aborted = True
                reason = (
                    f"boundary contamination {frac:.3e} exceeded threshold {threshold:.3e} at t={t:.6g}"
                )
                break

    stepping = {
        "steps_taken": int(round(t / dt)),
        "gmres": None if method == "dense" else {
            "applies_per_step": {"min": min(applies), "mean": sum(applies) / len(applies), "max": max(applies)},
            "worst_relres": worst_relres,
            "worst_true_relres": worst_true_relres,
            "check_retries": check_retries,
        },
        "aborted": aborted,
        "abort_reason": reason,
        "boundary_threshold": threshold,
        "boundary_initial": frac0,
        "boundary_final": trace.boundary[-1],
        "final_time": t,
    }
    return v, trace, stepping


def solve(problem: Problem, grid: Grid, dt: float, *, indices: Sequence[GsIndices] = (), method: str = "krylov") -> SolveResult:
    """Integrate the problem on [0, T].

    Both methods apply G through FFTs for the first right-hand side and
    reuse each step solve's own A u+ for the next.  "krylov" solves each
    step with warm-started GMRES right-preconditioned by the free step
    (about two applies per step at dt=1e-3, plus a true-residual check at
    each trace sample) and reports applies per step, the worst recurrence
    residual, the worst checked one and the check retries under "gmres";
    "dense", a reference, solves against the assembled matrix.  Aborts
    (GMRES stall or non-finite residual, true-residual check failed after
    its retry, boundary contamination; NaN fails each) are those of the
    shared loop, _crank_nicolson.
    """
    pieces = _GeneratorPieces(problem, grid)
    nsteps = _steps_for(problem.T, dt)
    if method not in ("krylov", "dense"):
        raise ValueError(f"unknown method {method!r}")
    u, trace, stepping = _crank_nicolson(
        pieces, sample(grid, problem.g), dt, nsteps, method=method, indices=indices
    )
    report = {
        "n": grid.n,
        "L": grid.L,
        "dim": grid.dim,
        "dt": dt,
        "T": problem.T,
        "method": method,
        **stepping,
        "final_l2": u.l2_norm(),
    }
    return SolveResult(u=u, trace=trace, report=report)


class ConjugatedGenerator:
    """G_v(t) of the weighted unknown v = E(t) u (module docstring) for one
    weight pair and schedule, with w = <x>_h^(1-sigma).  E0 acts through the
    pair's factors; its 2-norm condition number cond_e0 must pass the
    conditioning cap, which also bounds cond(core) (pdo.WeightPair).  The
    pair's core^-1 and then V_S are built here, before any dense sample is:
    V_S is not placed on the heap after an n^d x n^d sample, and the
    inverse's LAPACK scratch is freed before V_S is allocated (at
    conjugation-check --n 512, m = 511, the process peak read 61.6 MB,
    against 64.4 MB with V_S built first and 68.4 MB with both left to
    conjugate's first call)."""

    def __init__(self, problem: Problem, pair: WeightPair, params: LambdaParams, schedule: ConjugationSchedule, *, cond_cap: float = 1e12):
        self.pieces = _GeneratorPieces(problem, pair.grid)
        self.grid = pair.grid
        self.pair = pair
        self.cond_e0 = pair.cond()
        if not (self.cond_e0 < cond_cap):
            raise ValueError(f"condition number {self.cond_e0:.3e} exceeds cap {cond_cap:.1e}")
        pair.core_inv, pair.v_s  # in this order, now: see the class docstring
        self.schedule = schedule
        self.w = (np.sqrt(params.h**2 + pair.grid.x_norm**2) ** (1.0 - params.sigma)).ravel()
        self._level: tuple[float, np.ndarray, np.ndarray] | None = None

    def _schedule_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(e^(k(t) w), k'(t) w), read-only, evaluated once per time level:
        a step applies G_v(t) several times at one t."""
        if self._level is None or self._level[0] != t:
            weight, drift = np.exp(self.schedule.k(t) * self.w), self.schedule.kprime(t) * self.w
            weight.flags.writeable = drift.flags.writeable = False
            self._level = (t, weight, drift)
        return self._level[1:]

    def weight(self, t: float) -> np.ndarray:
        """e^(k(t) w) per node, read-only: the diagonal factor of E(t)."""
        return self._schedule_at(t)[0]

    def lift(self, t: float, u: np.ndarray) -> np.ndarray:
        """E(t) u = e^(k(t) w) E0 u for flat u; physical is its inverse."""
        return self.weight(t) * self.pair.apply(u)

    def physical(self, t: float, v: StateVector) -> np.ndarray:
        """u = E(t)^-1 v = E0^-1 (v / e^(k(t) w)) on grid.shape."""
        return self.pair.solve(v.values.ravel() / self.weight(t)).reshape(self.grid.shape)

    def apply(self, t: float, v: StateVector) -> np.ndarray:
        """G_v(t) v without forming G_v: E(t) G(t) E(t)^-1 v + k'(t) w v."""
        gu = self.pieces.apply(t, StateVector(self.grid, self.physical(t, v))).ravel()
        out = self.lift(t, gu)
        out += self._schedule_at(t)[1] * v.values.ravel()
        return out.reshape(self.grid.shape)

    def preconditioned_apply(self, t: float, h: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A P y, P y) for a flat y: A = I - h G_v(t), P the plain route's
        free step, and A P y formed through apply."""
        p, _ = self.pieces.free_step(h)
        py = apply_multiplier(StateVector(self.grid, y.reshape(self.grid.shape)), p)
        return (py.values - h * self.apply(t, py)).ravel(), py.values.ravel()

    def dense(self, t: float) -> np.ndarray:
        """G_v(t) as a dense matrix, in O(n^2 m) through the pair's
        factors; the loop builds it only for eigenvalue samples.  The
        similarity by W is two diagonal scalings of E0 G(t) E0^-1 in its own
        storage, rows by e^(k(t) w) and columns by its inverse, the level
        apply reads."""
        mat = self.pair.conjugate(self.pieces.dense(t))
        weight, drift = self._schedule_at(t)
        mat *= weight[:, None]
        mat /= weight
        mat.flat[:: mat.shape[0] + 1] += drift
        return mat

    def source(self, t: float) -> np.ndarray | None:
        """E(t) f(t) on grid.shape, or None for a homogeneous problem."""
        f = self.pieces.source(t)
        if f is None:
            return None
        return self.lift(t, f.ravel()).reshape(self.grid.shape)


def conjugated_min_eig(grid: Grid, gv: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of -gv, a dense G_v on
    grid, formed in gv's own storage: gv is overwritten.  It is also that
    of i Lap - gv, since the Hermitian Lap makes i Lap skew-Hermitian.  It
    takes no generator, so a caller can free the weight pair's factors
    before the eigen-solve."""
    gv *= -1
    return hermitian_min_eig(DenseOp(grid, gv, "composite"))


def solve_conjugated(problem: Problem, grid: Grid, dt: float, params: LambdaParams, schedule: ConjugationSchedule, *, indices: Sequence[GsIndices] = (), eig_stride: int = 0) -> SolveResult:
    """Integrate the weighted unknown v = E(t) u and undo the weight.

    E(t) = diag(e^(k(t) w)) E0 with w = <x>_h^(1-sigma) and E0 the direct
    quantization of e^lam.  The run refuses to start unless the
    quantization remainder of the weight is below 1 and E0 passes the
    conditioning cap.  Each step runs the preconditioned GMRES of solve on
    G_v, applied matrix-free, and the report carries its "gmres" block.
    With eig_stride > 0, the smallest eigenvalue of the Hermitian part of
    -G_v (that of i Lap - G_v, i Lap being skew-Hermitian), a function of t
    alone, is sampled outside the loop at t=0 and at every that many steps
    and the last, of those taken; eig_stride < 0 is refused, and so is a
    grid past hermitian_min_eig's node cap when eig_stride > 0, before any
    work.  Its uniform lower bound is the discrete form of the energy
    inequality the weight is designed to produce.  Returns a SolveResult
    with u at the last time reached; its report carries the samples
    (eig_samples, their minimum min_eig_floor) and cond_e0, the condition
    number the cap was checked on.  The trace holds the norms of v; the
    boundary monitor watches u, as in solve, since the weight lifts v
    toward the edge.
    """
    if abs(schedule.T - problem.T) > 1e-12:
        raise ValueError("schedule horizon differs from problem horizon")
    if eig_stride < 0:
        raise ValueError(f"eig_stride must be >= 0, got {eig_stride}")
    if eig_stride > 0:
        _check_eig_size(grid)
    nsteps = _steps_for(problem.T, dt)

    pair = WeightPair(grid, lambda_on_grid(grid, params))
    rem = pair.remainder_norm()
    if not (rem < 1.0):
        raise ValueError(f"weight quantization remainder {rem:.3e} is not below 1")
    gen = ConjugatedGenerator(problem, pair, params, schedule)

    v0 = StateVector(grid, gen.lift(0.0, sample(grid, problem.g).values.ravel()).reshape(grid.shape))

    def eig_sample(j: int) -> dict:
        return {"t": j * dt, "min_eig": conjugated_min_eig(grid, gen.dense(j * dt))}

    # the node cap was checked before any work; t=0 is sampled before the
    # steps, so a run that aborts still reports it
    eig_samples = [eig_sample(0)] if eig_stride > 0 else []
    v, trace, stepping = _crank_nicolson(gen, v0, dt, nsteps, method="krylov", indices=indices)
    if eig_stride > 0:
        taken = range(1, stepping["steps_taken"] + 1)
        eig_samples += [eig_sample(j) for j in taken if j % eig_stride == 0 or j == nsteps]
    u = StateVector(grid, gen.physical(stepping["final_time"], v))
    report = {
        "n": grid.n,
        "L": grid.L,
        "dim": grid.dim,
        "dt": dt,
        "T": problem.T,
        "method": "conjugated-krylov",
        **stepping,
        "remainder_norm": rem,
        "cond_e0": gen.cond_e0,
        "min_eig_floor": min((e["min_eig"] for e in eig_samples), default=None),
        "eig_samples": eig_samples,
        "final_l2_u": u.l2_norm(),
        "final_l2_v": v.l2_norm(),
    }
    return SolveResult(u=u, trace=trace, report=report)


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


def estimate_loss_delta(phi, t: float, delta_grid, *, sigma: float, s: float, rho2_g: float = 1.0) -> dict:
    """Classify each candidate decay loss delta as convergent or divergent.

    phi(t, x) is the log of the exact state magnitude.  For each delta the
    weighted-tail exponent w(x) = Re phi(t, x) + (rho2_g - delta) <x>^(1/s)
    is fitted on 20 <= x <= 80 against the powers <x>^(1-sigma) and
    <x>^(1/s) (a single combined coefficient when the two coincide).  Since
    <x>^(1/s) is one of the columns and least squares is linear, one fit at
    delta = 0 serves the whole grid: a loss delta lowers the <x>^(1/s)
    coefficient by exactly delta.  The dominant-power coefficient decides
    the verdict, a coefficient within 1e-7 of zero counting as absent; ties
    fall to the lower power and then to "divergent" (a constant tail is not
    square-integrable).  infimal_delta is the smallest convergent candidate.
    """
    p = 1.0 - sigma
    q = 1.0 / s
    tol = 1e-7
    x = np.linspace(20.0, 80.0, 1024)
    bx = np.sqrt(1.0 + x * x)
    base = np.real(np.asarray(phi(t, x), dtype=np.complex128))
    critical = abs(p - q) < 1e-9
    powers = (q,) if critical else (p, q)
    cols = np.stack([bx**pw for pw in powers] + [np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(cols, base + rho2_g * bx**q, rcond=None)

    deltas = np.asarray(delta_grid, dtype=np.float64)
    c = np.tile(coef[: len(powers)], (deltas.size, 1))
    c[:, -1] -= deltas
    # one row per candidate, the dominant power's coefficient first
    c = c[:, np.argsort(powers)[::-1]]
    verdicts = np.select(
        [cond for col in c.T for cond in (col > tol, col < -tol)],
        ["divergent", "convergent"] * len(powers),
        default="divergent",
    )
    fits = [
        {"delta": float(d), "dominant_coef": float(row[0]), "secondary_coef": None if critical else float(row[1])}
        for d, row in zip(deltas, c)
    ]
    convergent = deltas[verdicts == "convergent"]
    return {
        "delta_grid": deltas.tolist(),
        "classification": verdicts.tolist(),
        "infimal_delta": float(convergent.min()) if convergent.size else None,
        "fits": fits,
        "critical": critical,
        "powers": {"growth": p, "decay": q},
    }
