"""Stepper, conjugated route, energy accounting, loss classifier."""
import numpy as np
import pytest

from decaylab.cauchy import (
    Problem,
    ConjugatedGenerator,
    EnergyTrace,
    _GeneratorPieces,
    solve,
    solve_conjugated,
    gronwall_check,
    estimate_loss_delta,
)
from decaylab.examples import example1, example2, _family
from decaylab.grid import Grid, StateVector, forward_dft, inverse_dft, sample
from decaylab.gsnorm import GsIndices
from decaylab.pdo import DenseOp, WeightPair, assemble_dense, hermitian_min_eig
from decaylab.symbol import ConjugationSchedule, LambdaParams


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
    assert res.report["method"] == "dense"
    assert not res.report["aborted"]
    u0 = sample(g, _free_problem().g)
    assert abs(res.report["final_l2"] - u0.l2_norm()) <= 1e-10 * u0.l2_norm()


def test_solve_dt_and_method_validation():
    g = Grid(dim=1, n=32, L=6.0)
    with pytest.raises(ValueError):
        solve(_free_problem(), g, 0.3)
    with pytest.raises(ValueError):
        solve(_free_problem(), g, 0.01, method="magic")


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


def test_trace_columns_record_norms():
    ep = example1(0.5, 1.8)
    g = Grid(dim=1, n=128, L=15.0)
    idx = GsIndices()
    res = solve(ep.problem, g, 0.05, indices=(idx,), sample_every=2)
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
    gen = ConjugatedGenerator(ep.problem, WeightPair(g, np.zeros(g.shape + g.shape)), params, sched)
    w = np.sqrt(15.0**2 + g.x**2) ** 0.5
    t = 0.2
    plain = _GeneratorPieces(ep.problem, g).dense(t)
    want = np.exp(sched.k(t) * (w[:, None] - w[None, :])) * plain + np.diag(sched.kprime(t) * w)
    assert np.max(np.abs(gen.at(t) - want)) <= 1e-12 * np.max(np.abs(want))
    origin = int(np.argmin(np.abs(g.x)))
    assert g.x[origin] == 0.0
    assert gen.weight(t)[origin] == pytest.approx(np.exp(sched.k(t) * 15.0**0.5), rel=1e-14)


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


def test_gronwall_check_unitary_run():
    g = Grid(dim=1, n=32, L=8.0)
    idx = GsIndices()
    res = solve(_free_problem(), g, 0.01, indices=(idx,), sample_every=4)
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


def test_loss_classifier_tie_falls_to_polynomial_rule():
    # both power coefficients vanish: the polynomial tail decides
    phi = lambda t, x: np.zeros_like(np.asarray(x))
    rep_c = estimate_loss_delta(phi, 0.5, [0.0], sigma=0.5, s=2.0, rho2_g=0.0, m2=-0.51)
    rep_d = estimate_loss_delta(phi, 0.5, [0.0], sigma=0.5, s=2.0, rho2_g=0.0, m2=-0.49)
    assert rep_c["classification"] == ["convergent"]
    assert rep_d["classification"] == ["divergent"]
