"""Dense quantization algebra: frames, adjoints, conjugation."""
import tracemalloc

import numpy as np
import pytest

from decaylab import pdo
from decaylab.cauchy import ConjugatedGenerator, conjugated_min_eig, solve, solve_conjugated
from decaylab.examples import example1
from decaylab.grid import Grid, StateVector, forward_dft, apply_multiplier
from decaylab.pdo import (
    DenseOp,
    WeightPair,
    assemble_dense,
    adjoint,
    inverse,
    power_iteration_norm,
    conjugation_remainder_check,
    hermitian_min_eig,
)
from decaylab.symbol import ConjugationSchedule, LambdaParams, lambda_on_grid
from field_forms import full_field, open_form


def _rand_state(g, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return StateVector(g, v)


def test_dense_op_validation():
    g = Grid(dim=1, n=16, L=4.0)
    with pytest.raises(ValueError):
        DenseOp(g, np.eye(8), "kn")


def test_size_caps():
    g1 = Grid(dim=1, n=8192, L=10.0)
    with pytest.raises(ValueError, match="cap"):
        assemble_dense(g1, "kn", np.zeros(1))
    g2 = Grid(dim=2, n=128, L=5.0)
    with pytest.raises(ValueError, match="cap"):
        assemble_dense(g2, "reverse", np.zeros(1))
    with pytest.raises(ValueError, match="cap"):
        assemble_dense(g2, "multiplier", np.zeros(g2.shape))


def test_multiplier_matches_fft_route():
    g = Grid(dim=1, n=64, L=6.0)
    m = -g.xi**2
    u = _rand_state(g, seed=1)
    via_mat = assemble_dense(g, "multiplier", m).matrix @ u.values
    via_fft = apply_multiplier(u, m)
    assert np.max(np.abs(via_mat - via_fft.values)) <= 1e-10


def test_multiplier_is_block_circulant_2d():
    # the multiplier matrix is gathered from ifftn(m); it must equal the
    # defining sum c W diag(m) V, and its (j1, l1) block depends only on
    # (j1 - l1) mod n and is itself circulant
    g = Grid(dim=2, n=8, L=3.0)
    rng = np.random.default_rng(7)
    m = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    x = np.stack([a.ravel() for a in g.x_mesh], axis=-1)
    xi = np.stack([a.ravel() for a in g.xi_mesh], axis=-1)
    W = np.exp(1j * (x @ xi.T))
    V = np.exp(-1j * (xi @ x.T)) * g.dx**2
    want = (g.dxi / (2.0 * np.pi)) ** 2 * (W * m.ravel()[None, :]) @ V
    mat = assemble_dense(g, "multiplier", m).matrix
    assert np.max(np.abs(mat - want)) <= 1e-12 * np.max(np.abs(want))
    blocks = mat.reshape(g.shape + g.shape)  # [j1, j2, l1, l2]
    for outer, inner in ((0, 2), (1, 3)):
        assert np.array_equal(np.roll(blocks, 1, axis=(outer, inner)), blocks)


def test_kind_and_shape_validation():
    g = Grid(dim=1, n=16, L=4.0)
    with pytest.raises(ValueError):
        assemble_dense(g, "weyl", np.zeros((16, 16)))
    with pytest.raises(ValueError):
        assemble_dense(g, "kn", np.zeros((16, 8)))
    with pytest.raises(ValueError):
        assemble_dense(g, "multiplier", np.zeros(8))


def test_quantizations_coincide_for_x_independent_symbol():
    g = Grid(dim=1, n=32, L=4.0)
    m = np.sqrt(1.0 + g.xi**2)
    sym = np.broadcast_to(m[None, :], (32, 32))
    a = assemble_dense(g, "kn", sym).matrix
    b = assemble_dense(g, "reverse", sym).matrix
    c = assemble_dense(g, "multiplier", m).matrix
    assert np.max(np.abs(a - b)) <= 1e-10
    assert np.max(np.abs(a - c)) <= 1e-10


@pytest.mark.parametrize("n, L", [(512, 0.5), (256, 20.0)])
def test_unit_symbol_quantizes_to_identity_to_roundoff(n, L):
    # W is gathered from the n-th roots of unity, so c W V = I holds to a
    # few ulp however large x . xi gets (804 rad at n=512, L=0.5)
    g = Grid(dim=1, n=n, L=L)
    ones = np.ones(g.shape + g.shape)
    for kind in ("kn", "reverse"):
        mat = assemble_dense(g, kind, ones).matrix
        assert np.max(np.abs(mat - np.eye(n))) <= 2e-15


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


def _quantization_sums(u, sym):
    # the defining sums on flattened nodes, with c = (dxi / 2 pi)^d:
    #   direct   c sum_k sym[j, k] e^(i x_j . xi_k) uhat[k]
    #   reverse  c sum_k e^(i x_j . xi_k) sum_m sym[m, k] e^(-i x_m . xi_k) u[m] dx^d
    g = u.grid
    x = np.stack([a.ravel() for a in g.x_mesh], axis=-1)
    xi = np.stack([a.ravel() for a in g.xi_mesh], axis=-1)
    phase = np.exp(1j * (x @ xi.T))
    s = sym.reshape(g.node_count, g.node_count)
    c = (g.dxi / (2.0 * np.pi)) ** g.dim
    uhat = forward_dft(u).values.ravel()
    direct = c * (s * phase) @ uhat
    reverse = c * phase @ ((s * phase.conj()).T @ (u.values.ravel() * g.dx**g.dim))
    return direct.reshape(g.shape), reverse.reshape(g.shape)


def test_apply_matches_assembled_matrix():
    g = Grid(dim=1, n=64, L=6.0)
    rng = np.random.default_rng(3)
    sym = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    u = _rand_state(g, seed=4)
    kn_sum, rev_sum = _quantization_sums(u, sym)
    kn_mat = assemble_dense(g, "kn", sym).matrix @ u.values
    assert np.max(np.abs(kn_sum - kn_mat)) <= 1e-9
    rev_mat = assemble_dense(g, "reverse", sym).matrix @ u.values
    assert np.max(np.abs(rev_sum - rev_mat)) <= 1e-9


def test_apply_matches_assembled_2d():
    g = Grid(dim=2, n=8, L=3.0)
    rng = np.random.default_rng(5)
    sym = rng.standard_normal(g.shape + g.shape)
    u = _rand_state(g, seed=6)
    kn_sum, _ = _quantization_sums(u, sym)
    mat = assemble_dense(g, "kn", sym).matrix @ u.values.ravel()
    assert np.max(np.abs(kn_sum - mat.reshape(g.shape))) <= 1e-9


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
    a = DenseOp(g, np.diag(2.0 + np.cos(g.x)), "composite")
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
        inverse(DenseOp(g, np.diag(v), "composite"))


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


def _dense_pair(g, field):
    # the reference: E0 = KN(e^lam) and R0 = REV(e^-lam) assembled in full
    lam = full_field(g, field)
    return assemble_dense(g, "kn", np.exp(lam)).matrix, assemble_dense(g, "reverse", np.exp(-lam)).matrix


def _weight_field(dim, n, L, h):
    return lambda_on_grid(Grid(dim=dim, n=n, L=L), LambdaParams(M=1.0, h=h, s=1.8, sigma=0.5))


@pytest.mark.parametrize(
    "dim, n, L, h, rel",
    [
        pytest.param(1, 256, 0.5, 5.0, 1e-12, id="criterion7"),
        pytest.param(1, 128, 15.0, 12.0, 1e-12, id="criterion8-n128"),
        pytest.param(2, 8, 3.0, 1.0, 1e-12, id="2d-8x8"),
        # m = 147 open columns of 256: conjugate takes two row blocks
        pytest.param(2, 16, 6.0, 3.0, 1e-12, id="2d-16x16"),
        # the dense reference itself loses digits at a remainder of 5.9e-7
        pytest.param(1, 256, 20.0, 19.0, 1e-9, id="criterion9"),
    ],
)
def test_weight_pair_factors_match_dense(dim, n, L, h, rel):
    # the gate leaves some frequency columns closed, and none of its open
    # columns vanishes, so they are the field's nonzero columns
    g = Grid(dim=dim, n=n, L=L)
    field = _weight_field(dim, n, L, h)
    assert 0 < WeightPair(g, field).u.shape[1] < g.node_count
    assert np.array_equal(open_form(g, full_field(g, field))[0], field[0])
    _check_pair_against_dense(g, field, rel)


@pytest.mark.parametrize(
    "n, L, h",
    [pytest.param(256, 0.5, 5.0, id="criterion7"), pytest.param(512, 15.0, 48.0, id="criterion8-n512")],
)
def test_remainder_norm_blocked_gram_matches_one_block(monkeypatch, n, L, h):
    # K K^H summed over 16 or more column blocks of K, a few Gram columns
    # at a time, moves the norm by roundoff only
    g = Grid(dim=1, n=n, L=L)
    pair = WeightPair(g, _weight_field(1, n, L, h))
    monkeypatch.setattr(pdo, "_BLOCK", n)
    one = pair.remainder_norm()
    monkeypatch.setattr(pdo, "_BLOCK", 16)
    assert abs(pair.remainder_norm() - one) <= 1e-15 * one


def _traced_peak(fn):
    """Peak bytes numpy and Python allocate during fn(), beyond what was
    held before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_remainder_norm_never_holds_a_whole_k():
    # H (m x n) and the Gram matrix (m+k square) are needed whole; the rest
    # takes K a column block at a time, so it stays below one (m+k) x n K
    # (about 0.41 of it here; the unblocked product held K and its conjugate)
    g = Grid(dim=1, n=2048, L=15.0)
    pair = WeightPair(g, _weight_field(1, 2048, 15.0, 192.0))
    m, mk = pair._open.size, pair._fc.shape[0]
    assert 2 * mk < g.n
    item = np.dtype(np.complex128).itemsize
    peak = _traced_peak(pair.remainder_norm)
    assert peak - (m * g.n + mk * mk) * item < mk * g.n * item


def test_weight_pair_holds_its_factors_and_no_dft_block():
    # at criterion 8's h-to-band ratio the pair holds U (n^d x m, the
    # factor size) and [[core], [R_C]] in (m + k) x m storage of its own,
    # with V_S left to its first use; building it holds the DFT block of U
    # with its closed rows, then the closed rows with the QR's copy, never
    # all three (held 1.00 and peak 3.01 factor sizes, against 2.00 and
    # 4.01 while construction also formed V_S, and 3.00 and 4.93 while the
    # pair kept the DFT block alive through a view)
    g = Grid(dim=1, n=2048, L=15.0)
    field = _weight_field(1, 2048, 15.0, 192.0)
    WeightPair(g, field)  # warm any cached tables outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        pair = WeightPair(g, field)
        held, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    m, mk = pair._open.size, pair._fc.shape[0]
    factor = g.node_count * m * np.dtype(np.complex128).itemsize
    assert 2 * mk < g.n and pair._fc.base is None and pair._v_s is None
    assert held - (factor + pair._fc.nbytes) < 0.01 * factor
    assert peak < 3.25 * factor


def test_remainder_only_pair_never_builds_v_s():
    # conjugation-check's sweep builds a pair for its remainder norm and
    # cond(E0) alone: V_S is never formed, and building the pair and taking
    # both peaks at 5.51 n x m factor sizes at criterion 7's n=512 (6.51
    # while construction formed V_S)
    g = Grid(dim=1, n=512, L=0.5)
    field = _weight_field(1, 512, 0.5, 5.0)
    WeightPair(g, field).remainder_norm()  # warm any cached tables outside the trace
    built = []

    def remainder_only():
        pair = WeightPair(g, field)
        pair.remainder_norm()
        pair.cond()
        built.append(pair._v_s is not None)

    peak = _traced_peak(remainder_only)
    factor = g.node_count * field[0].size * np.dtype(np.complex128).itemsize
    assert built == [False]
    assert peak < 5.51 * factor


def test_conjugated_generator_holds_no_second_m_by_n_factor():
    # at criterion 8's h-to-band ratio a constructed generator's pair holds
    # U and V_S (n^d x m each), core^-1 (m x m) and [[core], [R_C]]: E0^-1
    # is applied through core^-1, with no m x n^d Woodbury factor beside
    # V_S (held 0.55 % over those four measured; a fifth m x n^d is 45 %)
    g = Grid(dim=1, n=2048, L=15.0)
    params = LambdaParams(M=1.0, h=192.0, s=1.8, sigma=0.5)
    field = lambda_on_grid(g, params)
    sched = ConjugationSchedule(M=1.0, Nconst=2.0, T=0.5, k0=2.0 * float(np.expm1(1.0)))
    problem = example1(0.5, 1.8).problem
    ConjugatedGenerator(problem, WeightPair(g, field), params, sched)  # warm any cached tables outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pair = ConjugatedGenerator(problem, WeightPair(g, field), params, sched).pair
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    m = pair._open.size
    assert pair.core_inv.shape == (m, m)
    want = pair.u.nbytes + pair.v_s.nbytes + pair.core_inv.nbytes + pair._fc.nbytes
    assert abs(held - want) < 0.01 * want


def test_conjugated_dense_and_min_eig_hold_two_square_arrays():
    # with the pair's factors and the dense blocks built, tracemalloc sees
    # G_v, its Hermitian part and scratch of a few blocks: 2.063 n x n
    # arrays measured, the bound 2.10 leaving 0.04 for allocator noise
    # (3.03 when each product made its own).  The copy eigvalsh works on is
    # malloc'd inside numpy's LAPACK wrapper and is not traced.
    g = Grid(dim=1, n=512, L=0.5)
    params = LambdaParams(M=1.0, h=5.0, s=1.8, sigma=0.5)
    sched = ConjugationSchedule(M=1.0, Nconst=2.0, T=0.5, k0=2.0 * float(np.expm1(1.0)))
    gen = ConjugatedGenerator(example1(0.5, 1.8).problem, WeightPair(g, lambda_on_grid(g, params)), params, sched, cond_cap=1e14)
    conjugated_min_eig(g, gen.dense(0.5))
    peak = _traced_peak(lambda: conjugated_min_eig(g, gen.dense(0.5)))
    assert peak <= 2.10 * g.n * g.n * np.dtype(np.complex128).itemsize


def test_dense_step_holds_two_square_arrays():
    # a dense Crank-Nicolson step forms I - h G(t+dt) in G's own storage:
    # tracemalloc sees G, one a-term slab of 128 rows and smaller scratch,
    # 1.35 n x n arrays measured, where I - h G formed out of place adds
    # one more.  The copy np.linalg.solve factors is malloc'd inside
    # numpy's LAPACK wrapper and is not traced.
    g = Grid(dim=1, n=512, L=20.0)
    problem = example1(0.5, 1.8, T=0.1).problem
    peak = _traced_peak(lambda: solve(problem, g, 0.025, method="dense"))
    assert peak <= 2.0 * g.n * g.n * np.dtype(np.complex128).itemsize


def test_weight_pair_with_every_column_open():
    # a weight nonzero on every frequency column: C is empty and E0 is all
    # core
    g = Grid(dim=1, n=64, L=4.0)
    field = open_form(g, 0.2 * np.exp(-g.x[:, None] ** 2) * (1.5 + np.cos(g.xi))[None, :])
    assert WeightPair(g, field).u.shape[1] == g.n
    _check_pair_against_dense(g, field, 1e-12)


def _check_pair_against_dense(g, field, rel):
    # remainder norm, cond(E0), E0, its Woodbury inverse and the conjugation
    # from the factors of the open columns against the assembled pair
    pair = WeightPair(g, field)
    e0, r0 = _dense_pair(g, field)
    ref = np.linalg.norm(e0 @ r0 - np.eye(g.node_count), 2)
    assert abs(pair.remainder_norm() - ref) <= rel * ref
    assert abs(pair.cond() - np.linalg.cond(e0)) <= 1e-12 * np.linalg.cond(e0)
    v = _rand_state(g, seed=8).values.ravel()
    assert np.max(np.abs(pair.apply(v) - e0 @ v)) <= 1e-12 * np.max(np.abs(e0 @ v))
    want = np.linalg.solve(e0, v)
    assert np.max(np.abs(pair.solve(v) - want)) <= 1e-12 * np.max(np.abs(want))
    rng = np.random.default_rng(10)
    mat = rng.standard_normal((g.node_count,) * 2) + 1j * rng.standard_normal((g.node_count,) * 2)
    want = e0 @ mat @ np.linalg.inv(e0)
    assert np.max(np.abs(pair.conjugate(mat) - want)) <= 1e-12 * np.max(np.abs(want))


def test_weight_pair_with_closed_gate_is_identity():
    # h past the band: no open column, so the remainder is exactly 0,
    # cond(E0) is 1 and E0 and its inverse are the identity
    g = Grid(dim=1, n=64, L=5.0)
    pair = WeightPair(g, _weight_field(1, 64, 5.0, 25.0))
    assert pair.u.shape == (64, 0)
    assert pair.remainder_norm() == 0.0
    assert pair.cond() == 1.0
    v = _rand_state(g, seed=9).values
    assert np.array_equal(pair.solve(v), v)
    assert np.array_equal(pair.apply(v), v)


def _conjugated(op, field):
    # E0 op E0^-1 through the weight pair, refused unless the remainder is
    # below one
    pair = WeightPair(op.grid, field)
    assert pair.remainder_norm() < 1.0
    return pair.conjugate(op.matrix.copy())


def _bracket_correction(g, dp_dxi, dlam_dx):
    # i {p, lam} for a frequency-only p and an x-only lam, quantized
    return assemble_dense(g, "kn", 1j * dp_dxi * dlam_dx).matrix


def test_conjugate_generator_trivial_weight():
    g = Grid(dim=1, n=32, L=4.0)
    op = assemble_dense(g, "multiplier", -g.xi**2)
    pair = WeightPair(g, open_form(g, np.zeros(g.shape + g.shape)))
    assert pair.remainder_norm() <= 1e-12
    conj = pair.conjugate(op.matrix.copy())
    assert np.max(np.abs(conj - op.matrix)) <= 1e-8


def test_conjugate_generator_remainder_cap():
    # a purely spatial weight conjugates without remainder, so the field
    # must couple x and xi for the cap to bite
    g = Grid(dim=1, n=32, L=4.0)
    params = LambdaParams(M=1.0, h=1.0, s=1.8, sigma=0.5)
    assert np.max(np.abs(full_field(g, lambda_on_grid(g, params)))) > 0.0
    ep = example1(0.5, 1.8, T=0.5)
    sched = ConjugationSchedule(k0=2.0 * float(np.expm1(0.5)), Nconst=1.0, T=0.5, M=1.0)
    with pytest.raises(ValueError, match="remainder"):
        solve_conjugated(ep.problem, g, 0.05, params, sched)


def test_conjugation_preserves_spectrum():
    # similarity invariance through the explicit weight sandwich
    g = Grid(dim=1, n=32, L=4.0)
    a = DenseOp(g, np.diag(1.0 + 0.5 * np.exp(-g.x**2)), "composite")
    b = assemble_dense(g, "multiplier", np.sqrt(1.0 + g.xi**2))
    op = DenseOp(g, a.matrix @ b.matrix, "composite")
    field = 0.2 * np.exp(-g.x[:, None] ** 2) * np.ones_like(g.xi)[None, :]
    conj = _conjugated(op, open_form(g, field))
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
    field = open_form(g, lam_x[:, None] * np.ones_like(g.xi)[None, :])
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
    field = open_form(g, lam_x[:, None] * np.ones_like(g.xi)[None, :])
    dp_dxi = np.broadcast_to((g.xi / p)[None, :], (128, 128))
    dlam_dx = np.broadcast_to((-2.0 * g.x * lam_x)[:, None], (128, 128))
    conj = _conjugated(op, field)
    corr = _bracket_correction(g, dp_dxi, dlam_dx)
    shift = np.linalg.norm(conj - op.matrix, 2)
    gap = np.linalg.norm(conj - op.matrix - corr, 2)
    assert gap < 0.75 * shift


def test_hermitian_min_eig(monkeypatch):
    g = Grid(dim=1, n=32, L=4.0)
    assert abs(hermitian_min_eig(DenseOp(g, np.eye(32), "composite")) - 1.0) <= 1e-12
    v = np.linspace(-2.0, 5.0, 32)
    assert abs(hermitian_min_eig(DenseOp(g, np.diag(v), "composite")) - (-2.0)) <= 1e-12
    rng = np.random.default_rng(13)
    h = rng.standard_normal((32, 32))
    skew = DenseOp(g, 1j * (h + h.T), "composite")
    assert abs(hermitian_min_eig(skew)) <= 1e-12
    monkeypatch.setattr(pdo, "_EIG_MAX_NODES", 16)
    with pytest.raises(ValueError):
        hermitian_min_eig(DenseOp(g, np.eye(32), "composite"))


def test_hermitian_min_eig_leaves_its_input_and_matches_formula():
    g = Grid(dim=1, n=64, L=4.0)
    rng = np.random.default_rng(17)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    keep = a.copy()
    got = hermitian_min_eig(DenseOp(g, a, "composite"))
    assert a.tobytes() == keep.tobytes()
    assert got == float(np.linalg.eigvalsh(0.5 * (keep + keep.conj().T))[0])
