"""Stepper, conjugated route, energy accounting, loss classifier."""
import dataclasses
import functools

import numpy as np
import pytest

from decaylab import cauchy
from decaylab.cauchy import (
    Problem,
    ConjugatedGenerator,
    conjugated_min_eig,
    EnergyTrace,
    _GeneratorPieces,
    _edge_fraction,
    _gmres,
    solve,
    solve_conjugated,
    gronwall_check,
    estimate_loss_delta,
)
from decaylab.examples import example1, example2, example3, _family
from decaylab.grid import Grid, StateVector, apply_multiplier, forward_dft, inverse_dft, sample
from decaylab.gsnorm import GsIndices
from decaylab.pdo import DenseOp, WeightPair, assemble_dense, hermitian_min_eig
from decaylab.symbol import ConjugationSchedule, LambdaParams, lambda_on_grid
from field_forms import full_field, open_form


def _free_problem(T=0.2):
    return Problem(
        dim=1, sigma=0.5, s0=2.0, a=(None,), b=None, f=None,
        g=lambda x: np.exp(-x**2 / 2.0), T=T,
    )


def test_problem_validation():
    ok = dict(dim=1, sigma=0.5, s0=2.0, a=(None,), b=None, f=None, g=lambda x: x, T=1.0)
    Problem(**ok)
    for bad in (
        dict(ok, dim=3),
        dict(ok, sigma=0.0),
        dict(ok, sigma=1.0),
        dict(ok, s0=1.0),
        dict(ok, T=0.0),
        dict(ok, a=(None, None)),
    ):
        with pytest.raises(ValueError):
            Problem(**bad)


def test_energy_trace_bookkeeping():
    tr = EnergyTrace(labels=("A", "B"))
    tr.add(0.0, {"A": 1.0, "B": 2.0}, 0.1)
    tr.add(0.5, {"A": 3.0, "B": 4.0}, 0.2)
    with pytest.raises(ValueError):
        tr.add(0.5, {"A": 0.0, "B": 0.0}, 0.0)
    with pytest.raises(ValueError):
        tr.add(1.0, {"A": 0.0}, 0.0)
    assert tr.header() == ["t", "A", "B", "boundary_mag"]
    assert tr.rows() == [[0.0, 1.0, 2.0, 0.1], [0.5, 3.0, 4.0, 0.2]]


def test_generator_free_case_is_laplacian():
    g = Grid(dim=1, n=32, L=6.0)
    gen = _GeneratorPieces(_free_problem(), g).dense(0.0)
    lap = assemble_dense(g, "multiplier", (-(g.xi**2)).astype(np.complex128)).matrix
    assert np.max(np.abs(gen - 1j * lap)) == 0.0


def test_generator_zero_order_sign():
    # G = i Lap - b: a constant unit b shifts the Hermitian part to -1
    prob = Problem(dim=1, sigma=0.5, s0=2.0, a=(None,), b=lambda t, x: np.ones_like(x),
                   f=None, g=lambda x: np.exp(-x**2), T=1.0)
    g = Grid(dim=1, n=32, L=6.0)
    gen = DenseOp(g, _GeneratorPieces(prob, g).dense(0.3), "composite")
    assert abs(hermitian_min_eig(gen) + 1.0) <= 1e-12


def test_generator_first_order_term():
    # a = (1,): G u must equal i Lap u - u' for a lattice mode
    prob = Problem(dim=1, sigma=0.5, s0=2.0, a=(lambda t, x: np.ones_like(x),), b=None,
                   f=None, g=lambda x: np.exp(-x**2), T=1.0)
    g = Grid(dim=1, n=32, L=np.pi)
    gen = _GeneratorPieces(prob, g).dense(0.0)
    xi3 = g.xi[np.argmin(np.abs(g.xi - 3.0))]
    u = np.exp(1j * xi3 * g.x)
    out = gen @ u
    want = 1j * (-(xi3**2)) * u - 1j * xi3 * u
    assert np.max(np.abs(out - want)) <= 1e-10


def _gathered_multiplier(g, mult):
    # the multiplier matrix gathered entry by entry from ifftn(mult) at the
    # lag (j - l) mod n of each axis
    col = np.fft.ifftn(mult)
    j = np.arange(g.n)
    lag = (j[:, None] - j[None, :]) % g.n
    d = g.dim
    lags = tuple(lag.reshape([g.n if b % d == a else 1 for b in range(2 * d)]) for a in range(d))
    return col[lags].reshape(g.node_count, g.node_count)


def _plane_problem(a0, a1):
    return Problem(
        dim=2, sigma=0.5, s0=2.0,
        a=(a0, a1), b=lambda t, x, y: 0.1 * x + 1j * t * y, f=None,
        g=lambda x, y: np.exp(-x**2 - y**2), T=1.0,
    )


def _a0(t, x, y):
    return (0.3 + 1j * np.sin(x + t)) * np.exp(-y**2 / 9.0)


def _a1(t, x, y):
    return 1j * np.cos(y - t) / (1.0 + x**2)


@pytest.mark.parametrize(
    "prob, dim, n",
    [
        pytest.param(example1(0.5, 1.8).problem, 1, 64, id="1d-example1"),
        pytest.param(_free_problem(), 1, 32, id="1d-free"),
        pytest.param(_plane_problem(_a0, _a1), 2, 16, id="2d-both"),
        pytest.param(_plane_problem(None, _a1), 2, 16, id="2d-second"),
        pytest.param(_plane_problem(None, None), 2, 8, id="2d-none"),
    ],
)
def test_dense_generator_matches_gathered_blocks_bitwise(prob, dim, n):
    # dense(t) is built on strided views of each doubled ifftn column; it
    # must equal i Lap - a . d - b from the gathered n^d x n^d blocks to the
    # bit, and each cached block must address O(n^d) memory, not n^2d
    g = Grid(dim=dim, n=n, L=10.0)
    pieces = _GeneratorPieces(prob, g)
    lap = _gathered_multiplier(g, pieces.lap_mult.astype(np.complex128))
    derivs = [_gathered_multiplier(g, m) for m in pieces.deriv_mults]
    for t in (0.0, 0.3):
        want = 1j * lap
        for ax in range(dim):
            if prob.a[ax] is not None:
                want -= prob.a[ax](t, *g.x_mesh).ravel()[:, None] * derivs[ax]
        if prob.b is not None:
            want.flat[:: g.node_count + 1] -= np.asarray(prob.b(t, *g.x_mesh), dtype=np.complex128).ravel()
        assert pieces.dense(t).tobytes() == want.tobytes()
    ilap, dblocks = pieces._dense_blocks()
    for blk in (ilap, *dblocks):
        assert blk.shape == g.shape * 2
        lo, hi = getattr(np.lib, "array_utils", np).byte_bounds(blk)  # np.byte_bounds before numpy 2
        assert hi - lo <= 2**dim * g.node_count * blk.itemsize


def test_dense_route_refuses_a_grid_over_the_cap(monkeypatch):
    # 8192 nodes would take 1 GiB per dense matrix: the cap refuses them
    # before the blocks, or G(t), are built and before any step is solved
    def unreachable(*args):
        raise AssertionError("dense blocks built past the cap")

    monkeypatch.setattr(cauchy, "_circulant_view", unreachable)
    monkeypatch.setattr(cauchy.np.linalg, "solve", unreachable)
    with pytest.raises(ValueError, match="cap"):
        solve(example1(0.5, 1.8).problem, Grid(dim=1, n=8192, L=10.0), 0.025, method="dense")


def test_cn_step_unitary_for_skew_generator():
    # one dense step of the shared Crank-Nicolson rule
    g = Grid(dim=1, n=64, L=8.0)
    prob = _free_problem(T=0.05)
    u = sample(g, prob.g)
    res = solve(prob, g, 0.05, method="dense")
    assert res.report["steps_taken"] == 1
    assert abs(res.u.l2_norm() - u.l2_norm()) <= 1e-12 * u.l2_norm()


def test_solve_free_mass_conservation():
    g = Grid(dim=1, n=64, L=10.0)
    res = solve(_free_problem(), g, 0.01)
    assert res.report["method"] == "krylov"
    assert not res.report["aborted"]
    u0 = sample(g, _free_problem().g)
    assert abs(res.report["final_l2"] - u0.l2_norm()) <= 1e-10 * u0.l2_norm()


def test_solve_dt_and_method_validation():
    g = Grid(dim=1, n=32, L=6.0)
    with pytest.raises(ValueError):
        solve(_free_problem(), g, 0.3)
    for bad in ("magic", "auto"):
        with pytest.raises(ValueError):
            solve(_free_problem(), g, 0.01, method=bad)


def test_gmres_reports_true_residual():
    # x and A x come from the Arnoldi relation, not from a final apply, so
    # they and the reported residual equal a real apply's to roundoff
    rng = np.random.default_rng(0)
    n = 40
    a = 4.0 * np.eye(n) + (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y0 = np.zeros(n, dtype=np.complex128)
    p = 1.0 / (1.0 + 1j * np.linspace(0.0, 5.0, n))
    ys = []

    def plain(y):
        return a @ y, y

    def preconditioned(y):
        ys.append(y)
        return a @ (p * y), p * y

    def check(apply_ap, converged, **kw):
        x, relres, y, ax = _gmres(apply_ap, b, y0, **kw)
        true = float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))
        assert (true <= 1e-12) == converged
        assert abs(relres - true) <= 1e-15
        assert np.linalg.norm(ax - a @ x) <= 1e-13 * np.linalg.norm(a @ x)
        assert np.linalg.norm(x - apply_ap(y)[1]) <= 1e-13 * np.linalg.norm(x)

    check(plain, True)
    # a diagonal right preconditioner: x is P y, not y
    check(preconditioned, True)
    # one Arnoldi step per cycle: the relation carries x and the residual
    # across many restarts
    check(preconditioned, True, restart=1, max_restarts=200)
    # a budget too small to converge still reports the residual it reached
    check(plain, False, restart=2, max_restarts=1)
    # a zero right-hand side makes no apply and returns zeros throughout
    ys.clear()
    out = _gmres(preconditioned, np.zeros(n, dtype=np.complex128), b)
    assert ys == []
    assert out[1] == 0.0
    assert all(np.array_equal(arr, np.zeros(n)) for arr in (out[0], out[2], out[3]))


def _stalling_plain_run():
    return solve(example1(0.5, 1.8).problem, Grid(dim=1, n=128, L=15.0), 0.025)


def _stalling_conjugated_run():
    params = LambdaParams(M=1.0, h=12.0, s=1.8, sigma=0.5)
    sched = ConjugationSchedule(M=1.0, Nconst=0.5, T=0.5, k0=2.0 * np.expm1(0.25))
    return solve_conjugated(example1(0.5, 1.8).problem, Grid(dim=1, n=128, L=15.0), 0.025, params, sched)


@pytest.mark.parametrize("run", [_stalling_plain_run, _stalling_conjugated_run], ids=["plain", "conjugated"])
def test_stalled_step_solve_aborts(monkeypatch, run):
    # one Arnoldi step and one cycle cannot reach 1e-12: the first step's
    # residual stays above it and the run stops there, on either route
    monkeypatch.setattr(cauchy, "_gmres", functools.partial(_gmres, restart=1, max_restarts=1))
    res = run()
    assert res.report["aborted"]
    assert res.report["steps_taken"] == 0
    assert "iterative step solve stalled" in res.report["abort_reason"]
    assert res.report["gmres"]["worst_relres"] > 1e-12


@pytest.mark.parametrize("run", [_stalling_plain_run, _stalling_conjugated_run], ids=["plain", "conjugated"])
def test_wrong_step_solve_aborts_at_the_next_trace_sample(monkeypatch, run):
    # a step solve that claims convergence on a y off by 1e-9 passes its own
    # recurrence residual; the true-residual apply at the first trace sample
    # (every step here) catches it and stops the run, on either route
    def wrong_y(apply_ap, b, y0, **kw):
        x, relres, y, ax = _gmres(apply_ap, b, y0, **kw)
        return x, relres, y * (1.0 + 1e-9), ax

    monkeypatch.setattr(cauchy, "_gmres", wrong_y)
    res = run()
    gm = res.report["gmres"]
    assert res.report["aborted"]
    assert res.report["steps_taken"] == 0
    assert "true residual" in res.report["abort_reason"]
    assert gm["worst_relres"] <= 1e-12 < gm["worst_true_relres"]


def test_nan_coefficient_aborts_the_run_where_it_appears():
    # b turns NaN at one node after t=0.0035: the step to t=0.004 meets a
    # NaN residual on its first apply, and the run stops there with NaN as
    # its worst residual
    prob = example1(0.5, 1.8).problem

    def b(t, x):
        out = np.array(prob.b(t, x), dtype=np.complex128)
        if t > 0.0035:
            out[x.size // 2] = np.nan
        return out

    res = solve(dataclasses.replace(prob, b=b, T=0.01), Grid(dim=1, n=64, L=8.0), 1e-3, indices=(GsIndices(),))
    rep, gm = res.report, res.report["gmres"]
    assert rep["aborted"] and rep["steps_taken"] == 3
    assert rep["abort_reason"] == "iterative step solve hit a non-finite residual at t=0.004"
    assert np.isnan(gm["worst_relres"]) and gm["worst_true_relres"] <= 1e-12
    # one apply in the aborting step, no Arnoldi cycle in any
    assert gm["applies_per_step"]["min"] == 1 and gm["applies_per_step"]["max"] < 60
    assert res.trace.times == [0.0, 0.001, 0.002, 0.003]
    assert np.isfinite(res.trace.columns[GsIndices().label()]).all()


@pytest.mark.parametrize("run", [_stalling_plain_run, _stalling_conjugated_run], ids=["plain", "conjugated"])
def test_failed_check_is_retried_once(monkeypatch, run):
    # only the first step solve returns a wrong y: its check fails, one more
    # GMRES solve from the checked y (to half the gate) passes the second
    # check, and the run completes as an unpatched one does
    ref = run()
    calls = []

    def first_wrong(apply_ap, b, y0, **kw):
        calls.append(kw)
        x, relres, y, ax = _gmres(apply_ap, b, y0, **kw)
        return x, relres, y * (1.0 + 1e-9) if len(calls) == 1 else y, ax

    monkeypatch.setattr(cauchy, "_gmres", first_wrong)
    res = run()
    gm = res.report["gmres"]
    assert not res.report["aborted"]
    assert res.report["steps_taken"] == ref.report["steps_taken"] == 20
    assert calls[1] == {"tol": 0.5e-12}
    assert gm["check_retries"] == 1 and ref.report["gmres"]["check_retries"] == 0
    assert gm["worst_relres"] <= 1e-12 and gm["worst_true_relres"] <= 1e-12
    # the retry's applies count: at least its first residual and its check
    assert gm["applies_per_step"]["mean"] * 20 >= ref.report["gmres"]["applies_per_step"]["mean"] * 20 + 2
    err = np.linalg.norm(res.u.values - ref.u.values) / np.linalg.norm(ref.u.values)
    assert err <= 1e-10


def test_preconditioned_step_cost(monkeypatch):
    # the free Crank-Nicolson solve as right preconditioner: at this dt the
    # residual falls about 80-fold per Arnoldi step, so a step from the
    # warm start takes about seven applies: the first residual, the Arnoldi
    # steps and, since this 20-step run traces every step, the true-residual
    # check at its end (35 applies unpreconditioned from a cold start); each
    # apply makes one multiplier call per coefficient call
    ep = example1(0.5, 1.8)
    counts = {"mult": 0, "coeff": 0}
    per_apply = []

    def counted(fn):
        def wrapped(*args):
            counts["coeff"] += 1
            return fn(*args)

        return wrapped

    def counted_mult(u, m):
        counts["mult"] += 1
        return apply_multiplier(u, m)

    precond_apply = _GeneratorPieces.preconditioned_apply

    def counted_apply(self, t, h, y):
        before = dict(counts)
        out = precond_apply(self, t, h, y)
        per_apply.append((counts["mult"] - before["mult"], counts["coeff"] - before["coeff"]))
        return out

    monkeypatch.setattr(cauchy, "apply_multiplier", counted_mult)
    monkeypatch.setattr(_GeneratorPieces, "preconditioned_apply", counted_apply)
    prob = dataclasses.replace(ep.problem, a=tuple(counted(f) for f in ep.problem.a), b=counted(ep.problem.b))
    res = solve(prob, Grid(dim=1, n=256, L=20.0), 0.025)
    assert not res.report["aborted"]
    gm = res.report["gmres"]
    assert gm["applies_per_step"]["mean"] <= 8
    assert gm["worst_relres"] <= 1e-12 and gm["worst_true_relres"] <= 1e-12
    assert len(per_apply) == round(gm["applies_per_step"]["mean"] * res.report["steps_taken"])
    assert all(m == c == 2 for m, c in per_apply)
    # the only apply outside GMRES is the first step's right-hand side
    assert counts["mult"] == counts["coeff"] == 2 * (len(per_apply) + 1)


def _fft_counts(monkeypatch):
    counts = {"fftn": 0, "ifftn": 0}
    for name in counts:
        fn = getattr(np.fft, name)

        def counted(a, *args, fn=fn, name=name, **kwargs):
            counts[name] += 1
            return fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


def _two_dim_generator():
    g = Grid(dim=2, n=32, L=6.0)
    prob = Problem(
        dim=2, sigma=0.5, s0=2.0,
        a=(lambda t, x1, x2: 0.8j * np.tanh(x1), lambda t, x1, x2: -0.5j + 0.1 * t * x2),
        b=lambda t, x1, x2: 0.3 + 0.1j * (x1**2 - x2), f=None,
        g=lambda x1, x2: np.exp(-(x1**2 + x2**2)), T=0.1,
    )
    return _GeneratorPieces(prob, g)


@pytest.mark.parametrize(
    "make, forward, inverse",
    [(lambda: _plain_generator(), 1, 2), (_two_dim_generator, 1, 3), (lambda: _conjugated_generator(), 2, 3)],
    ids=["1d", "2d", "conjugated"],
)
def test_preconditioned_apply_takes_one_forward_fft_per_state(monkeypatch, make, forward, inverse):
    # every multiplier applied to a state reads that state's one spectrum:
    # one forward FFT per state and one inverse per multiplier, with bits
    # equal to the per-multiplier sandwich ifftn(m * fftn(y))
    gen = make()
    g = gen.grid
    rng = np.random.default_rng(7)
    y = (rng.normal(size=g.node_count) + 1j * rng.normal(size=g.node_count)) * np.exp(-g.x_norm.ravel() ** 2 / 8.0)
    counts = _fft_counts(monkeypatch)
    got = gen.preconditioned_apply(0.05, 0.0125, y)
    assert (counts["fftn"], counts["ifftn"]) == (forward, inverse)
    if isinstance(gen, _GeneratorPieces):
        st = StateVector(g, y.reshape(g.shape))
        counts.update(fftn=0, ifftn=0)
        gen.apply(0.05, st)
        assert (counts["fftn"], counts["ifftn"]) == (1, 1 + g.dim)

    def sandwich(u, m):
        return StateVector(u.grid, np.fft.ifftn(m * np.fft.fftn(u.values)))

    monkeypatch.setattr(cauchy, "apply_multiplier", sandwich)
    want = gen.preconditioned_apply(0.05, 0.0125, y)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize(
    "ep, bound",
    [(example1(0.5, 1.8, T=0.1), 3.0), (example2(0.5, T=0.1), 3.25)],
    ids=["example1", "example2"],
)
def test_warm_started_step_cost(ep, bound):
    # extrapolating the last three solves' corrections takes a step at
    # dt=1e-3 to its first residual and about one Arnoldi apply (four with
    # a cold start), and this 100-step run adds a true-residual apply at
    # every second step: 2.54 for example 1 and 3.09 for example 2, whose
    # state is not yet negligible at this box's edge; the bounds refuse the
    # half apply more that a fresh apply at the end of each solve would add
    res = solve(ep.problem, Grid(dim=1, n=256, L=20.0), 1e-3)
    assert not res.report["aborted"]
    gm = res.report["gmres"]
    assert gm["applies_per_step"]["mean"] <= bound
    assert gm["worst_relres"] <= 1e-12 and gm["worst_true_relres"] <= 1e-12


def test_conjugated_warm_started_step_cost():
    # criterion 9's grid, weight and schedule on a shorter horizon: the
    # conjugated route shares the predictor and the sampled check (2.54
    # applies per step)
    sigma, s, M, N, T = 0.5, 1.8, 1.0, 0.5, 0.1
    ep = example1(sigma, s, T=T)
    sched = ConjugationSchedule(k0=2.0 * float(np.expm1(N * T)), Nconst=N, T=T, M=M)
    params = LambdaParams(M=M, h=19.0, s=s, sigma=sigma)
    res = solve_conjugated(ep.problem, Grid(dim=1, n=256, L=20.0), 1e-3, params, sched)
    assert not res.report["aborted"]
    gm = res.report["gmres"]
    assert gm["applies_per_step"]["mean"] <= 3.0
    assert gm["worst_relres"] <= 1e-12 and gm["worst_true_relres"] <= 1e-12


@pytest.mark.parametrize("nsteps", [1, 2, 3, 4])
def test_first_steps_match_dense(nsteps):
    # each start-up predictor (rhs, then the constant and the linear
    # extrapolation) and the first quadratic one end on the dense solution
    dt = 1e-3
    ep = example1(0.5, 1.8, T=nsteps * dt)
    g = Grid(dim=1, n=256, L=20.0)
    kry = solve(ep.problem, g, dt)
    dense = solve(ep.problem, g, dt, method="dense")
    assert kry.report["steps_taken"] == dense.report["steps_taken"] == nsteps
    assert np.max(np.abs(kry.u.values - dense.u.values)) <= 1e-10


def test_step_solves_start_from_extrapolated_corrections(monkeypatch):
    # step k's GMRES starts from rhs plus the polynomial through the last
    # min(k, 3) corrections d = y - rhs: 0, d_1, 2 d_2 - d_1, then
    # 3 d_k - 3 d_(k-1) + d_(k-2)
    calls = []

    def recording(apply_ap, b, y0, **kw):
        out = _gmres(apply_ap, b, y0, **kw)
        calls.append((b, y0 - b, out[2] - b))
        return out

    monkeypatch.setattr(cauchy, "_gmres", recording)
    dt = 1e-3
    ep = example1(0.5, 1.8, T=6 * dt)
    solve(ep.problem, Grid(dim=1, n=256, L=20.0), dt)
    start = [c[1] for c in calls]
    d = [c[2] for c in calls]
    assert np.array_equal(start[0], np.zeros_like(start[0]))
    want = [d[0], 2.0 * d[1] - d[0]] + [3.0 * d[k - 1] - 3.0 * d[k - 2] + d[k - 3] for k in range(3, 6)]
    for got, w, (b, _, _) in zip(start[1:], want, calls[1:]):
        assert np.linalg.norm(got - w) <= 1e-13 * np.linalg.norm(b)


def _plain_generator():
    return _GeneratorPieces(example1(0.5, 1.8).problem, Grid(dim=1, n=128, L=15.0))


def _conjugated_generator():
    return _open_gate_generator()[0]


@pytest.mark.parametrize("make", [_plain_generator, _conjugated_generator], ids=["plain", "conjugated"])
def test_reused_step_apply_is_the_next_right_hand_side(make):
    # a step to t returns A v, A = I - h G(t), at its solution v from the
    # Arnoldi relation, so the next right-hand side (I + h G(t)) v is
    # 2 v - A v with no new apply;
    # the dense reference reuses the matrix of its solve the same way
    gen = make()
    g = gen.grid
    dt = 0.0125
    h = 0.5 * dt
    v0 = StateVector(g, np.exp(-g.x**2 / 4.0) * (1.0 + 0.5j * g.x))
    rhs = (v0.values + h * gen.apply(0.0, v0)).ravel()
    vals, relres, _, av = _gmres(lambda y: gen.preconditioned_apply(dt, h, y), rhs, rhs)
    assert relres <= 1e-12
    v1 = StateVector(g, vals.reshape(g.shape))
    want = (v1.values + h * gen.apply(dt, v1)).ravel()
    amat = np.eye(g.n) - h * gen.dense(dt)
    for got in (2.0 * vals - av, 2.0 * vals - amat @ vals):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("method", ["krylov", "dense"])
def test_zero_initial_data_stays_zero(method):
    # zero right-hand sides: GMRES returns zeros without an apply, and the
    # warm start and reused apply built from them stay zero
    prob = dataclasses.replace(example1(0.5, 1.8, T=0.05).problem, g=lambda x: np.zeros_like(x))
    res = solve(prob, Grid(dim=1, n=64, L=15.0), 0.0125, method=method)
    assert not res.report["aborted"]
    assert res.report["steps_taken"] == 4
    assert not np.any(res.u.values)


def test_cn_order_two_against_spectral_propagator():
    # free evolution: exact time propagation of the same spatial
    # discretization isolates the time error, so the ratio is clean
    g = Grid(dim=1, n=64, L=12.0)
    prob = _free_problem(T=0.2)
    u0 = sample(g, prob.g)
    uh = forward_dft(u0)
    exact = inverse_dft(StateVector(g, np.exp(-1j * prob.T * g.xi**2) * uh.values, space="xi"))
    errs = []
    for dt in (0.02, 0.01):
        res = solve(prob, g, dt)
        errs.append(float(np.max(np.abs(res.u.values - exact.values))))
    order = np.log2(errs[0] / errs[1])
    assert 1.9 <= order <= 2.1


def test_solve_2d_against_closed_form():
    # constant drift a and damping b: from e^(-|x|^2) the exact solution
    # is e^(-bT) s^-1 exp(-|x - aT|^2 / s) with s = 1 + 4iT
    a1, a2, b, T = 0.8, -0.5, 0.3, 0.25
    prob = Problem(
        dim=2, sigma=0.5, s0=2.0,
        a=(lambda t, x1, x2: np.full_like(x1, a1), lambda t, x1, x2: np.full_like(x1, a2)),
        b=lambda t, x1, x2: np.full_like(x1, b), f=None,
        g=lambda x1, x2: np.exp(-(x1**2 + x2**2)), T=T,
    )
    g = Grid(dim=2, n=64, L=8.0)
    x1, x2 = g.x_mesh
    s = 1.0 + 4j * T
    exact = np.exp(-b * T) / s * np.exp(-((x1 - a1 * T) ** 2 + (x2 - a2 * T) ** 2) / s)
    errs = []
    for dt in (0.0125, 0.00625):
        res = solve(prob, g, dt)
        assert not res.report["aborted"]
        assert res.report["dim"] == 2
        assert res.report["gmres"]["worst_relres"] <= 1e-12
        errs.append(float(np.max(np.abs(res.u.values - exact))))
    # 3.77e-4 and 9.41e-5
    assert errs[0] <= 5e-4
    assert 1.9 <= np.log2(errs[0] / errs[1]) <= 2.1


def test_coefficient_samples_are_never_written_into():
    # the applies build their sums in place, in arrays they made; a problem
    # whose coefficients hand back the same arrays on every call sees them
    # unchanged after both routes and a 2-D run
    ep = example1(0.5, 1.8)
    g = Grid(dim=1, n=128, L=15.0)
    a_arr, b_arr = ep.problem.a[0](0.25, g.x), ep.problem.b(0.25, g.x)
    prob = dataclasses.replace(ep.problem, a=(lambda t, x: a_arr,), b=lambda t, x: b_arr)
    params = LambdaParams(M=1.0, h=12.0, s=1.8, sigma=0.5)
    sched = ConjugationSchedule(M=1.0, Nconst=0.5, T=0.5, k0=2.0 * np.expm1(0.25))
    g2 = Grid(dim=2, n=16, L=4.0)
    c2 = [np.full(g2.shape, v, dtype=np.complex128) for v in (0.8j, -0.5j, 0.3 + 0.1j)]
    prob2 = Problem(
        dim=2, sigma=0.5, s0=2.0, a=(lambda t, x1, x2: c2[0], lambda t, x1, x2: c2[1]),
        b=lambda t, x1, x2: c2[2], f=None, g=lambda x1, x2: np.exp(-(x1**2 + x2**2)), T=0.1,
    )
    samples = [a_arr, b_arr, *c2]
    keep = [arr.copy() for arr in samples]
    runs = (
        solve(prob, g, 0.025),
        solve(prob, g, 0.025, method="dense"),
        solve_conjugated(prob, g, 0.025, params, sched),
        solve(prob2, g2, 0.025),
    )
    for res in runs:
        assert not res.report["aborted"]
        assert res.report["steps_taken"] > 0
    for arr, orig in zip(samples, keep):
        assert arr.tobytes() == orig.tobytes()


def test_edge_fraction_reads_both_ends_of_every_axis():
    line = np.zeros(8, dtype=np.complex128)
    line[4] = 2.0
    assert _edge_fraction(line) == 0.0
    assert _edge_fraction(np.zeros((8, 8))) == 0.0
    for end in (0, -1):
        v = line.copy()
        v[end] = 0.5j
        assert _edge_fraction(v) == 0.25
    square = np.zeros((8, 8), dtype=np.complex128)
    square[3:5, 3:5] = 2.0
    assert _edge_fraction(square) == 0.0
    # one point inside each side in turn, away from the corners
    for side in ((0, 4), (-1, 4), (4, 0), (4, -1)):
        v = square.copy()
        v[side] = -0.5
        assert _edge_fraction(v) == 0.25


def test_dense_and_krylov_routes_agree():
    ep = example1(0.5, 1.8)
    g = Grid(dim=1, n=256, L=20.0)
    dense = solve(ep.problem, g, 0.025, method="dense")
    kry = solve(ep.problem, g, 0.025, method="krylov")
    assert not dense.report["aborted"] and not kry.report["aborted"]
    diff = np.max(np.abs(dense.u.values - kry.u.values))
    assert diff <= 1e-8


def test_boundary_monitor_aborts_on_tight_box():
    prob = _free_problem(T=1.0)
    tight = solve(prob, Grid(dim=1, n=64, L=4.0), 0.02)
    assert tight.report["aborted"]
    assert "boundary" in tight.report["abort_reason"]
    roomy = solve(_free_problem(T=0.3), Grid(dim=1, n=128, L=15.0), 0.02)
    assert not roomy.report["aborted"]


def test_conjugated_boundary_monitor_aborts_on_tight_box():
    # the box of test_boundary_monitor_aborts_on_tight_box with the gate
    # closed: the monitor watches u, not the weight-lifted v, so it fires
    g = Grid(dim=1, n=64, L=4.0)
    params = LambdaParams(M=1.0, h=30.0, s=1.8, sigma=0.5)
    sched = ConjugationSchedule(M=1.0, Nconst=1.0, T=1.0, k0=2.0 * np.expm1(1.0))
    res = solve_conjugated(_free_problem(T=1.0), g, 0.02, params, sched)
    assert res.report["aborted"]
    assert "boundary" in res.report["abort_reason"]
    assert res.report["final_time"] < 1.0
    assert res.report["gmres"]["worst_relres"] <= 1e-12


def test_trace_columns_record_norms():
    ep = example1(0.5, 1.8)
    g = Grid(dim=1, n=128, L=15.0)
    idx = GsIndices()
    res = solve(ep.problem, g, 0.05, indices=(idx,))
    lab = idx.label()
    assert lab in res.trace.columns
    col = res.trace.columns[lab]
    assert len(col) == len(res.trace.times)
    assert col[0] == pytest.approx(sample(g, ep.problem.g).l2_norm())


def test_conjugated_route_with_closed_gate_matches_plain():
    # a gate threshold beyond the lattice band and a vanishing schedule
    # reduce the weighted run to the plain one
    ep = example1(0.5, 1.8)
    g = Grid(dim=1, n=64, L=8.0)
    params = LambdaParams(M=1.0, h=15.0, s=1.8, sigma=0.5)
    sched = ConjugationSchedule(M=1.0, Nconst=1e-9, T=0.5, k0=2.0 * np.expm1(0.5e-9))
    plain = solve(ep.problem, g, 0.025, method="dense")
    conj = solve_conjugated(ep.problem, g, 0.025, params, sched)
    assert conj.report["remainder_norm"] <= 1e-10
    assert np.max(np.abs(conj.u.values - plain.u.values)) <= 1e-8


def test_conjugated_generator_with_closed_gate():
    # with the gate closed E0 = I, so G_v(t) = S(t) * G(t) + k'(t) diag(w)
    # and the weight at the origin node is e^(k(t) h^(1-sigma))
    ep = example1(0.5, 1.8)
    g = Grid(dim=1, n=32, L=8.0)
    params = LambdaParams(M=1.0, h=15.0, s=1.8, sigma=0.5)
    sched = ConjugationSchedule(M=1.0, Nconst=1.0, T=0.5, k0=3.0)
    gen = ConjugatedGenerator(ep.problem, WeightPair(g, open_form(g, np.zeros(g.shape + g.shape))), params, sched)
    w = np.sqrt(15.0**2 + g.x**2) ** 0.5
    t = 0.2
    plain = _GeneratorPieces(ep.problem, g).dense(t)
    want = np.exp(sched.k(t) * (w[:, None] - w[None, :])) * plain + np.diag(sched.kprime(t) * w)
    assert np.max(np.abs(gen.dense(t) - want)) <= 1e-12 * np.max(np.abs(want))
    origin = int(np.argmin(np.abs(g.x)))
    assert g.x[origin] == 0.0
    assert gen.weight(t)[origin] == pytest.approx(np.exp(sched.k(t) * 15.0**0.5), rel=1e-14)


def _open_gate_generator():
    # criterion 8's smallest lattice: the gate is open inside the band
    ep = example1(0.5, 1.8)
    g = Grid(dim=1, n=128, L=15.0)
    params = LambdaParams(M=1.0, h=12.0, s=1.8, sigma=0.5)
    sched = ConjugationSchedule(M=1.0, Nconst=0.5, T=0.5, k0=2.0 * np.expm1(0.25))
    field = lambda_on_grid(g, params)
    return ConjugatedGenerator(ep.problem, WeightPair(g, field), params, sched), field, sched


def test_conjugated_generator_apply_matches_dense():
    # the right-hand side applies G_v matrix-free through the diagonal
    # similarity; with the gate open it must equal the dense G_v
    gen, _, _ = _open_gate_generator()
    g = gen.grid
    assert gen.pair.remainder_norm() > 0.0
    v = StateVector(g, np.exp(-g.x**2 / 4.0) * (1.0 + 0.5j * g.x))
    for t in (0.0, 0.3):
        want = gen.dense(t) @ v.values
        assert np.max(np.abs(gen.apply(t, v) - want)) <= 1e-12 * np.max(np.abs(want))


def test_conjugated_apply_evaluates_the_schedule_once_per_time_level(monkeypatch):
    # a step applies G_v several times at one t: apply takes e^(k(t) w) and
    # k'(t) w from one evaluation of k and k' per time level, bit for bit
    # the out-of-place formula, and hands the weight out read-only
    gen, _, sched = _open_gate_generator()
    g = gen.grid
    v = StateVector(g, np.exp(-g.x**2 / 4.0) * (1.0 + 0.5j * g.x))
    want = {}
    for t in (0.1, 0.3):
        weight = np.exp(sched.k(t) * gen.w)
        u = StateVector(g, gen.pair.solve(v.values.ravel() / weight).reshape(g.shape))
        gu = gen.pieces.apply(t, u).ravel()
        want[t] = (weight * gen.pair.apply(gu) + sched.kprime(t) * gen.w * v.values.ravel()).reshape(g.shape)
    calls = []

    def counted(name):
        fn = getattr(ConjugationSchedule, name)

        def wrapper(self, t):
            calls.append(name)
            return fn(self, t)

        return wrapper

    for name in ("k", "kprime"):
        monkeypatch.setattr(ConjugationSchedule, name, counted(name))
    for t in (0.1, 0.1, 0.1, 0.3, 0.3):
        assert gen.apply(t, v).tobytes() == want[t].tobytes()
    assert calls == ["k", "kprime"] * 2
    assert not gen.weight(0.3).flags.writeable


def test_conjugated_preconditioned_step_matches_dense():
    # one GMRES solve on G_v, applied matrix-free and preconditioned by the
    # plain route's free step, must equal the solve against I - h G_v(t)
    # assembled densely
    gen, field, _ = _open_gate_generator()
    g = gen.grid
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    for t, h in ((0.0125, 0.00625), (0.3, 0.025)):
        want = np.linalg.solve(np.eye(g.n) - h * gen.dense(t), rhs)
        got, relres, _, _ = _gmres(lambda y: gen.preconditioned_apply(t, h, y), rhs, rhs)
        assert relres <= 1e-12
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    want = np.linalg.cond(assemble_dense(g, "kn", np.exp(full_field(g, field))).matrix)
    assert abs(gen.cond_e0 - want) <= 1e-12 * want


def test_conjugated_min_eig_matches_out_of_place_formula():
    # dense and min_eig work in place; the values must be bit for bit those
    # of S(t) * (E0 G E0^-1) + k'(t) diag(w) and of -G_v
    gen, _, sched = _open_gate_generator()
    t = 0.3
    s_fac = np.exp(sched.k(t) * (gen.w[:, None] - gen.w[None, :]))
    gv = s_fac * gen.pair.conjugate(gen.pieces.dense(t)) + np.diag(sched.kprime(t) * gen.w)
    assert np.array_equal(gen.dense(t), gv)
    got = conjugated_min_eig(gen.grid, gen.dense(t))
    assert got == hermitian_min_eig(DenseOp(gen.grid, -gv, "composite"))
    # i Lap is skew-Hermitian: leaving it out moves the value by roundoff only
    ilap, _ = gen.pieces._dense_blocks()
    with_lap = hermitian_min_eig(DenseOp(gen.grid, ilap - gv, "composite"))
    assert abs(got - with_lap) <= 1e-13 * abs(with_lap)


@pytest.mark.parametrize(
    "n, h, T, eig_stride, samples",
    [
        pytest.param(128, 12.0, 0.5, 0, 0, id="0-0"),
        # 40 steps: with stride 7 the samples are t=0, steps 7..35 and the last
        pytest.param(128, 12.0, 0.5, 7, 7, id="7-7"),
        # criterion 8's largest lattice: 20 steps, samples at t=0 and every 5
        pytest.param(512, 48.0, 0.25, 5, 5, id="criterion8-n512"),
    ],
)
def test_conjugated_run_builds_g_v_only_at_eig_samples(monkeypatch, n, h, T, eig_stride, samples):
    # the step solves apply G_v matrix-free, so G_v is built only for the
    # eig samples, and the free-step preconditioner keeps GMRES short
    calls = []
    dense = ConjugatedGenerator.dense

    def counted(self, t):
        calls.append(t)
        return dense(self, t)

    monkeypatch.setattr(ConjugatedGenerator, "dense", counted)
    ep = example1(0.5, 1.8, T=T)
    g = Grid(dim=1, n=n, L=15.0)
    params = LambdaParams(M=1.0, h=h, s=1.8, sigma=0.5)
    sched = ConjugationSchedule(M=1.0, Nconst=0.5, T=T, k0=2.0 * np.expm1(0.5 * T))
    res = solve_conjugated(ep.problem, g, 0.0125, params, sched, eig_stride=eig_stride)
    assert res.report["steps_taken"] == round(T / 0.0125)
    assert len(res.eig_samples) == samples
    assert calls == [e["t"] for e in res.eig_samples]
    assert res.report["method"] == "conjugated-krylov"
    gm = res.report["gmres"]
    assert gm["applies_per_step"]["mean"] <= 8
    assert gm["worst_relres"] <= 1e-12


def test_conjugated_route_horizon_mismatch():
    ep = example1(0.5, 1.8)
    g = Grid(dim=1, n=32, L=8.0)
    params = LambdaParams(M=1.0, h=15.0, s=1.8, sigma=0.5)
    sched = ConjugationSchedule(M=1.0, Nconst=1.0, T=0.25, k0=10.0)
    with pytest.raises(ValueError):
        solve_conjugated(ep.problem, g, 0.025, params, sched)


def test_conjugated_route_tracks_exact_solution():
    # the gate threshold sits just inside the lattice band (ximax 13.4), so
    # the weight is active yet its quantization remainder passes the
    # invertibility precondition
    ep = example1(0.5, 1.8)
    g = Grid(dim=1, n=128, L=15.0)
    params = LambdaParams(M=1.0, h=12.0, s=1.8, sigma=0.5)
    sched = ConjugationSchedule(M=1.0, Nconst=0.5, T=0.5, k0=2.0 * np.expm1(0.25))
    plain = solve(ep.problem, g, 0.0125, method="dense")
    conj = solve_conjugated(ep.problem, g, 0.0125, params, sched, eig_stride=10)
    assert 0.0 < conj.report["remainder_norm"] < 1.0
    exact = ep.u_exact(0.5, g.x)
    e_plain = np.max(np.abs(plain.u.values - exact))
    e_conj = np.max(np.abs(conj.u.values - exact))
    assert e_conj <= 2.0 * e_plain
    assert len(conj.eig_samples) >= 3
    assert np.isfinite(conj.report["min_eig_floor"])
    times = [e["t"] for e in conj.eig_samples]
    assert times == sorted(times)


def test_route_equivalence_at_quarter_horizon():
    # both discretizations of the same problem must agree through the
    # weighted variable; a weak schedule keeps their time errors aligned
    ep = example1(0.5, 1.8, T=0.25)
    g = Grid(dim=1, n=512, L=20.0)
    params = LambdaParams(M=1.0, h=76.0, s=1.8, sigma=0.5)
    sched = ConjugationSchedule(M=1.0, Nconst=1e-3, T=0.25, k0=2.0 * np.expm1(2.5e-4))
    plain = solve(ep.problem, g, 5e-3, method="dense")
    conj = solve_conjugated(ep.problem, g, 5e-3, params, sched)
    assert np.max(np.abs(conj.u.values - plain.u.values)) <= 1e-6


def _sourced_problem(with_source=True):
    # manufactured u = (1 + t) e^(-x^2) of u_t = i u_xx + f
    def f(t, x):
        return np.exp(-x**2) - 1j * (1.0 + t) * (4.0 * x**2 - 2.0) * np.exp(-x**2)

    return Problem(
        dim=1, sigma=0.5, s0=2.0, a=(None,), b=None, f=f if with_source else None,
        g=lambda x: np.exp(-x**2), T=0.5,
    )


def test_source_term_on_both_routes():
    # the plain route is exact up to the solver tolerance, since
    # Crank-Nicolson integrates a solution linear in t exactly; the
    # conjugated route converges at second order in dt
    g = Grid(dim=1, n=128, L=15.0)
    exact = 1.5 * np.exp(-g.x**2)

    def err(res):
        assert not res.report["aborted"]
        return float(np.max(np.abs(res.u.values - exact)))

    assert err(solve(_sourced_problem(), g, 0.05, method="dense")) <= 1e-12
    assert err(solve(_sourced_problem(), g, 0.05, method="krylov")) <= 1e-10
    params = LambdaParams(M=1.0, h=12.0, s=1.8, sigma=0.5)
    sched = ConjugationSchedule(M=1.0, Nconst=0.5, T=0.5, k0=2.0 * np.expm1(0.25))
    errs = [err(solve_conjugated(_sourced_problem(), g, dt, params, sched)) for dt in (0.05, 0.025, 0.0125)]
    assert errs[-1] <= 1e-3
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5
    # dropping the source leaves an O(1) error: the source was used
    assert err(solve_conjugated(_sourced_problem(False), g, 0.0125, params, sched)) >= 0.5


def test_gronwall_check_unitary_run():
    g = Grid(dim=1, n=32, L=8.0)
    idx = GsIndices()
    res = solve(_free_problem(), g, 0.01, indices=(idx,))
    rep = gronwall_check(res.trace.times, res.trace.columns[idx.label()])
    assert abs(rep["C0"] - 1.0) <= 1e-6


def test_gronwall_check_validation():
    with pytest.raises(ValueError):
        gronwall_check([0.0], [1.0])
    with pytest.raises(ValueError):
        gronwall_check([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        gronwall_check([0.0, 1.0], [1.0, 1.0], source_norms=[1.0])


def test_gronwall_check_with_source():
    # constant norm 1 with unit source: denominator grows linearly, so the
    # ratio peaks at t = 0
    times = [0.0, 0.5, 1.0]
    rep = gronwall_check(times, [1.0, 1.0, 1.0], source_norms=[1.0, 1.0, 1.0])
    assert rep["C0"] == pytest.approx(1.0)
    assert rep["argmax_t"] == 0.0
    assert rep["ratios"][-1] == pytest.approx(0.5)


def test_loss_classifier_below_threshold_all_converge():
    # decay power above growth power: every positive loss wins
    ep = example1(0.5, 1.8)
    deltas = [0.05 * k for k in range(1, 20)]
    rep = estimate_loss_delta(ep.phi, 0.5, deltas, sigma=0.5, s=1.8, rho2_g=1.0)
    assert all(v == "convergent" for v in rep["classification"])
    assert rep["infimal_delta"] == pytest.approx(0.05)
    assert not rep["critical"]


def test_loss_classifier_critical_family():
    # borderline family: the loss equals elapsed time, resolved on the grid
    ep = example2(0.5)
    deltas = [0.01 * k for k in range(1, 100)]
    for t in (0.25, 0.5):
        rep = estimate_loss_delta(ep.phi, t, deltas, sigma=0.5, s=2.0, rho2_g=1.0)
        assert rep["critical"]
        assert rep["infimal_delta"] == pytest.approx(t + 0.01)


def test_loss_classifier_above_threshold_all_diverge():
    # decay power below growth power: no finite loss compensates
    ep = _family(0.5, 3.0, -1.0, 0.5, "above", 1.0)
    deltas = [0.1 * k for k in range(1, 10)]
    rep = estimate_loss_delta(ep.phi, 0.5, deltas, sigma=0.5, s=3.0, rho2_g=1.0)
    assert all(v == "divergent" for v in rep["classification"])
    assert rep["infimal_delta"] is None


def test_loss_classifier_tie_is_divergent():
    # both power coefficients vanish: an unweighted tail of constant
    # magnitude is not square-integrable, on either side of the threshold
    phi = lambda t, x: np.zeros_like(np.asarray(x))
    for s in (1.5, 2.0, 3.0):
        rep = estimate_loss_delta(phi, 0.5, [0.0], sigma=0.5, s=s, rho2_g=0.0)
        assert rep["classification"] == ["divergent"]
        assert rep["infimal_delta"] is None


def _loss_delta_reference(phi, t, delta_grid, *, sigma, s, rho2_g):
    # one least-squares fit per candidate loss, on the classifier's columns
    p, q, tol = 1.0 - sigma, 1.0 / s, 1e-7
    x = np.linspace(20.0, 80.0, 1024)
    bx = np.sqrt(1.0 + x * x)
    base = np.real(np.asarray(phi(t, x), dtype=np.complex128))
    critical = abs(p - q) < 1e-9
    verdicts, coefs = [], []
    for delta in delta_grid:
        w = base + (rho2_g - delta) * bx**q
        if critical:
            coef = np.linalg.lstsq(np.stack([bx**q, np.ones_like(x)], axis=1), w, rcond=None)[0]
            c_hi, c_lo = coef[0], None
        else:
            cols = np.stack([bx**p, bx**q, np.ones_like(x)], axis=1)
            coef = np.linalg.lstsq(cols, w, rcond=None)[0]
            c_hi, c_lo = (coef[0], coef[1]) if p > q else (coef[1], coef[0])
        verdict = "divergent"
        for c in (c_hi, c_lo):
            if c is not None and abs(c) > tol:
                verdict = "divergent" if c > 0 else "convergent"
                break
        verdicts.append(verdict)
        coefs.append((c_hi, c_lo))
    conv = [d for d, v in zip(delta_grid, verdicts) if v == "convergent"]
    return verdicts, (min(conv) if conv else None), coefs


def _classifier_cases():
    for sigma in (0.3, 0.5, 0.7):
        thr = 1.0 / (1.0 - sigma)
        yield from (
            (sigma, example1(sigma, 0.9 * thr)),
            (sigma, example2(sigma)),
            (sigma, example3(sigma, 0.9 * thr)),
            (sigma, _family(sigma, 1.5 * thr, -1.0, 0.5, "sharpness-upper", 1.0)),
        )


def test_loss_classifier_matches_per_candidate_fits():
    # a loss delta only shifts the <x>^(1/s) coefficient, so the one-fit
    # classifier agrees with a fit per candidate to roundoff
    deltas = [round(0.01 * k, 10) for k in range(1, 121)]
    for sigma, ep in _classifier_cases():
        s = ep.problem.s0
        for t in (0.25, 0.5, 1.0):
            for rho2 in (ep.rho2_data, 0.5):
                rep = estimate_loss_delta(ep.phi, t, deltas, sigma=sigma, s=s, rho2_g=rho2)
                verdicts, infimal, coefs = _loss_delta_reference(ep.phi, t, deltas, sigma=sigma, s=s, rho2_g=rho2)
                assert rep["classification"] == verdicts
                assert rep["infimal_delta"] == infimal
                for fit, (c_hi, c_lo) in zip(rep["fits"], coefs):
                    assert abs(fit["dominant_coef"] - c_hi) <= 1e-11
                    if c_lo is None:
                        assert fit["secondary_coef"] is None
                    else:
                        assert abs(fit["secondary_coef"] - c_lo) <= 1e-11


def test_loss_classifier_makes_one_fit_per_call(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    deltas = [0.01 * k for k in range(1, 100)]
    for ep in (example1(0.5, 1.8), example2(0.5)):
        before = len(calls)
        estimate_loss_delta(ep.phi, 0.5, deltas, sigma=0.5, s=ep.problem.s0, rho2_g=1.0)
        assert len(calls) - before == 1
