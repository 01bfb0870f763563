"""Dense quantization algebra: frames, adjoints, conjugation."""
import numpy as np
import pytest

from decaylab.cauchy import solve_conjugated
from decaylab.examples import example1
from decaylab.grid import Grid, StateVector, forward_dft, apply_multiplier
from decaylab.pdo import (
    DenseOp,
    WeightPair,
    kn_apply,
    rev_apply,
    assemble_dense,
    adjoint,
    inverse,
    power_iteration_norm,
    conjugation_remainder_check,
    hermitian_min_eig,
)
from decaylab.symbol import ConjugationSchedule, LambdaParams, lambda_on_grid


def _rand_state(g, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return StateVector(g, v)


def test_dense_op_validation():
    g = Grid(dim=1, n=16, L=4.0)
    with pytest.raises(ValueError):
        DenseOp(g, np.eye(8), "kn")
    op = DenseOp(g, np.eye(16), "kn")
    with pytest.raises(ValueError):
        op.apply(forward_dft(_rand_state(g)))
    with pytest.raises(ValueError):
        op.apply(_rand_state(Grid(dim=1, n=16, L=5.0)))


def test_size_caps():
    g1 = Grid(dim=1, n=8192, L=10.0)
    with pytest.raises(ValueError):
        kn_apply(StateVector(g1, np.zeros(8192)), np.zeros(1))
    g2 = Grid(dim=2, n=128, L=5.0)
    with pytest.raises(ValueError):
        rev_apply(StateVector(g2, np.zeros((128, 128))), np.zeros(1))
    with pytest.raises(ValueError):
        assemble_dense(g2, "kn", np.zeros(1))


def test_multiplier_matches_fft_route():
    g = Grid(dim=1, n=64, L=6.0)
    m = -g.xi**2
    u = _rand_state(g, seed=1)
    via_mat = assemble_dense(g, "multiplier", m).apply(u)
    via_fft = apply_multiplier(u, m)
    assert np.max(np.abs(via_mat.values - via_fft.values)) <= 1e-10


def test_pointwise_is_diagonal():
    g = Grid(dim=1, n=32, L=4.0)
    v = np.exp(-g.x**2) + 2.0
    u = _rand_state(g, seed=2)
    out = assemble_dense(g, "pointwise", v).apply(u)
    assert np.max(np.abs(out.values - v * u.values)) == 0.0


def test_kind_and_shape_validation():
    g = Grid(dim=1, n=16, L=4.0)
    with pytest.raises(ValueError):
        assemble_dense(g, "weyl", np.zeros((16, 16)))
    with pytest.raises(ValueError):
        assemble_dense(g, "kn", np.zeros((16, 8)))
    with pytest.raises(ValueError):
        assemble_dense(g, "multiplier", np.zeros(8))
    with pytest.raises(ValueError):
        assemble_dense(g, "pointwise", np.zeros((16, 16)))


def test_quantizations_coincide_for_x_independent_symbol():
    g = Grid(dim=1, n=32, L=4.0)
    m = np.sqrt(1.0 + g.xi**2)
    sym = np.broadcast_to(m[None, :], (32, 32))
    a = assemble_dense(g, "kn", sym).matrix
    b = assemble_dense(g, "reverse", sym).matrix
    c = assemble_dense(g, "multiplier", m).matrix
    assert np.max(np.abs(a - b)) <= 1e-10
    assert np.max(np.abs(a - c)) <= 1e-10


def test_adjoint_identity_random_real_symbols():
    # direct quantization adjoint equals reverse quantization of the
    # conjugate, as matrices
    g = Grid(dim=1, n=128, L=10.0)
    rng = np.random.default_rng(7)
    for _ in range(10):
        sym = rng.standard_normal((128, 128))
        a = assemble_dense(g, "kn", sym)
        b = assemble_dense(g, "reverse", sym)
        assert np.max(np.abs(adjoint(a).matrix - b.matrix)) <= 1e-10


def test_apply_matches_assembled_matrix():
    g = Grid(dim=1, n=64, L=6.0)
    rng = np.random.default_rng(3)
    sym = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    u = _rand_state(g, seed=4)
    kn_direct = kn_apply(u, sym)
    kn_mat = assemble_dense(g, "kn", sym).apply(u)
    assert np.max(np.abs(kn_direct.values - kn_mat.values)) <= 1e-9
    rev_direct = rev_apply(u, sym)
    rev_mat = assemble_dense(g, "reverse", sym).apply(u)
    assert np.max(np.abs(rev_direct.values - rev_mat.values)) <= 1e-9


def test_apply_matches_assembled_2d():
    g = Grid(dim=2, n=8, L=3.0)
    rng = np.random.default_rng(5)
    sym = rng.standard_normal(g.shape + g.shape)
    u = _rand_state(g, seed=6)
    direct = kn_apply(u, sym)
    mat = assemble_dense(g, "kn", sym).apply(u)
    assert np.max(np.abs(direct.values - mat.values)) <= 1e-9


def test_product_symbol_difference_is_commutator():
    # a(x, xi) = v(x) m(xi): direct minus reverse quantization equals
    # [diag(v), multiplier(m)] without remainder
    g = Grid(dim=1, n=32, L=5.0)
    v = np.exp(-g.x**2)
    m = g.xi / np.sqrt(1.0 + g.xi**2)
    sym = v[:, None] * m[None, :]
    kn = assemble_dense(g, "kn", sym).matrix
    rv = assemble_dense(g, "reverse", sym).matrix
    dv = np.diag(v.astype(np.complex128))
    mm = assemble_dense(g, "multiplier", m).matrix
    comm = dv @ mm - mm @ dv
    assert np.max(np.abs((kn - rv) - comm)) <= 1e-10


def test_compose_adjoint_inverse():
    g = Grid(dim=1, n=32, L=4.0)
    a = assemble_dense(g, "pointwise", 2.0 + np.cos(g.x))
    b = assemble_dense(g, "multiplier", 1.0 + g.xi**2)
    ab = DenseOp(g, a.matrix @ b.matrix, "composite")
    assert np.max(np.abs(adjoint(ab).matrix - ab.matrix.conj().T)) == 0.0
    inv = inverse(ab)
    resid = ab.matrix @ inv.matrix - np.eye(32)
    assert np.linalg.norm(resid, 2) <= 1e-8


def test_inverse_condition_cap():
    g = Grid(dim=1, n=16, L=4.0)
    v = np.ones(16)
    v[3] = 1e-15
    with pytest.raises(ValueError):
        inverse(assemble_dense(g, "pointwise", v))


def test_frequency_matrix_diagonalizes_multiplier():
    g = Grid(dim=1, n=32, L=4.0)
    m = np.sqrt(1.0 + g.xi**2)
    # the operator in the frequency basis: c V A W with the frame of the
    # module docstring
    W = np.exp(1j * np.outer(g.x, g.xi))
    V = np.exp(-1j * np.outer(g.xi, g.x)) * g.dx
    fm = V @ assemble_dense(g, "multiplier", m).matrix @ W * (g.dxi / (2.0 * np.pi))
    assert np.max(np.abs(np.diag(fm) - m)) <= 1e-9
    off = fm - np.diag(np.diag(fm))
    assert np.max(np.abs(off)) <= 1e-9


def test_power_iteration_norm():
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    est = power_iteration_norm(mat, iters=200, tol=1e-12)
    ref = np.linalg.norm(mat, 2)
    assert abs(est - ref) <= 1e-6 * ref
    quick = power_iteration_norm(mat)
    assert abs(quick - ref) <= 0.05 * ref
    assert power_iteration_norm(np.zeros((8, 8))) == 0.0


def test_remainder_vanishes_when_gate_never_opens():
    # h beyond the lattice frequency range freezes the weight entirely
    rep = conjugation_remainder_check([25.0], n=64, L=5.0, M=1.0, s=1.8, sigma=0.5)
    assert rep["rows"][0]["norm_r1"] <= 1e-10
    assert rep["h0"] == 25.0


def test_remainder_decreases_with_threshold():
    rep = conjugation_remainder_check([4.0, 8.0, 16.0], n=64, L=5.0, M=1.0, s=1.8, sigma=0.5)
    norms = [r["norm_r1"] for r in rep["rows"]]
    assert norms[0] > norms[1] > norms[2]


def test_remainder_grows_with_weight_strength():
    one = conjugation_remainder_check([4.0], n=64, L=5.0, M=1.0, s=1.8, sigma=0.5)
    two = conjugation_remainder_check([4.0], n=64, L=5.0, M=2.0, s=1.8, sigma=0.5)
    assert two["rows"][0]["norm_r1"] > one["rows"][0]["norm_r1"]


def _conjugated(op, field):
    # E0 op E0^-1 through the weight pair, refused unless the remainder is
    # below one
    pair = WeightPair(op.grid, field)
    assert pair.remainder_norm() < 1.0
    return pair.e0.matrix @ op.matrix @ pair.inverse().matrix


def _bracket_correction(g, dp_dxi, dlam_dx):
    # i {p, lam} for a frequency-only p and an x-only lam, quantized
    return assemble_dense(g, "kn", 1j * dp_dxi * dlam_dx).matrix


def test_conjugate_generator_trivial_weight():
    g = Grid(dim=1, n=32, L=4.0)
    op = assemble_dense(g, "multiplier", -g.xi**2)
    pair = WeightPair(g, np.zeros(g.shape + g.shape))
    assert pair.remainder_norm() <= 1e-12
    conj = pair.e0.matrix @ op.matrix @ pair.inverse().matrix
    assert np.max(np.abs(conj - op.matrix)) <= 1e-8


def test_conjugate_generator_remainder_cap():
    # a purely spatial weight conjugates without remainder, so the field
    # must couple x and xi for the cap to bite
    g = Grid(dim=1, n=32, L=4.0)
    params = LambdaParams(M=1.0, h=1.0, s=1.8, sigma=0.5)
    assert np.max(np.abs(lambda_on_grid(g, params))) > 0.0
    ep = example1(0.5, 1.8, T=0.5)
    sched = ConjugationSchedule(k0=2.0 * float(np.expm1(0.5)), Nconst=1.0, T=0.5, M=1.0)
    with pytest.raises(ValueError, match="remainder"):
        solve_conjugated(ep.problem, g, 0.05, params, sched, remainder_cap=1e-12)


def test_conjugation_preserves_spectrum():
    # similarity invariance through the explicit weight sandwich
    g = Grid(dim=1, n=32, L=4.0)
    a = assemble_dense(g, "pointwise", 1.0 + 0.5 * np.exp(-g.x**2))
    b = assemble_dense(g, "multiplier", np.sqrt(1.0 + g.xi**2))
    op = DenseOp(g, a.matrix @ b.matrix, "composite")
    field = 0.2 * np.exp(-g.x[:, None] ** 2) * np.ones_like(g.xi)[None, :]
    conj = _conjugated(op, field)
    for k in (1, 2, 3):
        ta = np.trace(np.linalg.matrix_power(op.matrix, k))
        tb = np.trace(np.linalg.matrix_power(conj, k))
        assert abs(ta - tb) <= 1e-8 * max(1.0, abs(ta))


def test_conjugate_generator_leading_correction_exact_for_linear_symbol():
    # conjugating a first-order multiplier by a spatial weight shifts it by
    # exactly i lam'(x): the bracket correction closes the identity, up to
    # spectral leakage of the weight
    g = Grid(dim=1, n=128, L=10.0)
    op = assemble_dense(g, "multiplier", np.where(g.nyquist_mask[0], 0.0, g.xi))
    lam_x = 0.3 * np.exp(-g.x**2)
    field = lam_x[:, None] * np.ones_like(g.xi)[None, :]
    dp_dxi = np.ones((128, 128))
    dlam_dx = np.broadcast_to((-2.0 * g.x * lam_x)[:, None], (128, 128))
    conj = _conjugated(op, field)
    corr = _bracket_correction(g, dp_dxi, dlam_dx)
    # measured on a state whose spectrum dies well inside the lattice band,
    # so aliasing of the weight product cannot pollute the identity
    u = np.exp(-g.x**2 / 2.0)
    corr_u = corr @ u
    gap_u = conj @ u - op.matrix @ u - corr_u
    assert np.linalg.norm(corr_u) > 0.05
    assert np.linalg.norm(gap_u) <= 1e-8 * np.linalg.norm(corr_u)


def test_conjugate_generator_correction_shrinks_gap():
    # for a curved symbol the bracket correction is not exact but must
    # remove most of the conjugation shift
    g = Grid(dim=1, n=128, L=10.0)
    p = np.sqrt(1.0 + g.xi**2)
    op = assemble_dense(g, "multiplier", p)
    lam_x = 0.3 * np.exp(-g.x**2)
    field = lam_x[:, None] * np.ones_like(g.xi)[None, :]
    dp_dxi = np.broadcast_to((g.xi / p)[None, :], (128, 128))
    dlam_dx = np.broadcast_to((-2.0 * g.x * lam_x)[:, None], (128, 128))
    conj = _conjugated(op, field)
    corr = _bracket_correction(g, dp_dxi, dlam_dx)
    shift = np.linalg.norm(conj - op.matrix, 2)
    gap = np.linalg.norm(conj - op.matrix - corr, 2)
    assert gap < 0.75 * shift


def test_hermitian_min_eig():
    g = Grid(dim=1, n=32, L=4.0)
    assert abs(hermitian_min_eig(DenseOp(g, np.eye(32), "composite")) - 1.0) <= 1e-12
    v = np.linspace(-2.0, 5.0, 32)
    assert abs(hermitian_min_eig(assemble_dense(g, "pointwise", v)) - (-2.0)) <= 1e-12
    rng = np.random.default_rng(13)
    h = rng.standard_normal((32, 32))
    skew = DenseOp(g, 1j * (h + h.T), "composite")
    assert abs(hermitian_min_eig(skew)) <= 1e-12
    with pytest.raises(ValueError):
        hermitian_min_eig(DenseOp(g, np.eye(32), "composite"), max_nodes=16)
