"""Phase-weight construction: cutoffs, profile integrals, transport sign."""
import numpy as np
import pytest

from decaylab.grid import Grid
from decaylab.symbol import (
    _blend,
    _blend_slope,
    _dir_profile,
    _dir_slope,
    _profile_integral,
    ConjugationSchedule,
    LambdaParams,
    c_of_lambda,
    gevrey_bound_check,
    lambda1,
    lambda_on_grid,
    lambda_sym,
    smooth_cutoff,
    transport_sign_check,
)

P1 = LambdaParams(M=1.0, h=1.0, s=2.0, sigma=0.5, critical=True)


def test_params_validation():
    with pytest.raises(ValueError):
        LambdaParams(M=1.0, h=1.0, s=2.5, sigma=0.5)  # s above 1/(1-sigma)
    with pytest.raises(ValueError):
        LambdaParams(M=1.0, h=1.0, s=2.0, sigma=0.5)  # equality needs critical
    with pytest.raises(ValueError):
        LambdaParams(M=1.0, h=0.5, s=1.8, sigma=0.5)  # h below one
    LambdaParams(M=1.0, h=1.0, s=2.0, sigma=0.5, critical=True)


def test_schedule_bound_and_closed_form():
    bound = 3.0 * (np.exp(0.5) - 1.0)
    with pytest.raises(ValueError):
        ConjugationSchedule(k0=bound * 0.99, Nconst=1.0, T=0.5, M=2.0)
    sched = ConjugationSchedule(k0=bound, Nconst=1.0, T=0.5, M=2.0)
    assert sched.k(0.0) == pytest.approx(bound, rel=1e-14)
    assert abs(sched.k(0.5)) <= 1e-12  # minimal k0 lands exactly at zero
    ts = np.linspace(0.0, 0.5, 11)
    assert np.max(np.abs(sched.ode_residual(ts))) <= 1e-12
    assert sched.k(0.0) > sched.k(0.25) > sched.k(0.5) - 1e-15
    with pytest.raises(ValueError):
        sched.k(0.6)
    with pytest.raises(ValueError):
        sched.k(-0.1)


def test_smooth_cutoff_exact_tails():
    r = np.array([0.0, 0.5, 1.0, 1.3, 1.7, 2.0, 3.0, -0.4, -2.5])
    v = smooth_cutoff(r, 1.0, 2.0)
    assert np.all(v[np.abs(r) <= 1.0] == 1.0)
    assert np.all(v[np.abs(r) >= 2.0] == 0.0)
    assert np.all((v >= 0.0) & (v <= 1.0))
    band = np.linspace(1.01, 1.99, 50)
    vb = smooth_cutoff(band, 1.0, 2.0)
    assert np.all(np.diff(vb) < 0.0)  # strictly decreasing across the band
    assert smooth_cutoff(0.3, 1.0, 2.0) == 1.0  # scalar in, scalar out


def test_tilde_chi_plateau_and_support():
    # the direction blend is _dir_profile at u = x . omega / <x>
    # x . omega / <x> = 3/sqrt(10) ~ 0.95 -> outside plateau, inside support
    assert 0.0 < _dir_profile(3.0 / np.sqrt(10.0)) < 1.0
    assert _dir_profile(0.2 / np.sqrt(1.04)) == 1.0
    # 2d: x orthogonal to omega gives u = 0, on the plateau
    assert _dir_profile(0.0) == 1.0
    assert _dir_profile(1.0) == 0.0


def test_lambda1_1d_frozen_value():
    # int_0^1 (1+z^2)^(-1/4) dz, thirty-digit reference 0.937489750746936211
    v = lambda1(1.0, 3.0, P1, dim=1)
    assert v == pytest.approx(0.9374897507469362, rel=1e-12)
    assert lambda1(1.0, -3.0, P1, dim=1) == pytest.approx(-v, rel=1e-14)


def test_lambda1_2d_frozen_value():
    # x=(1,1), xi=(0,3): y=1, transverse offset 1, int_0^1 (2+z^2)^(-1/4) dz
    v = lambda1(np.array([1.0, 1.0]), np.array([0.0, 3.0]), P1)
    assert v == pytest.approx(0.8110832985667036, rel=1e-11)


def test_lambda_linear_in_m():
    p3 = LambdaParams(M=3.0, h=1.0, s=2.0, sigma=0.5, critical=True)
    assert lambda1(0.0, 2.0, p3, dim=1) == 0.0
    assert lambda1(1.3, 2.0, p3, dim=1) == pytest.approx(
        3.0 * lambda1(1.3, 2.0, P1, dim=1), rel=1e-14
    )


def test_lambda2_matches_lambda1_in_1d():
    # lambda2 = M F(y, 0) drops the transverse offset, which is zero in 1d
    xs = np.linspace(-8.0, 8.0, 33)
    xis = np.full_like(xs, 4.0)
    a = lambda1(xs, xis, P1, dim=1)
    b = P1.M * _profile_integral(xs, np.zeros_like(xs), P1.s)
    assert np.max(np.abs(a - b)) == 0.0
    # so the direction blend reduces to -lambda1
    blend = _blend(xs, np.zeros_like(xs), np.sqrt(1.0 + xs**2), P1, 24)
    assert np.max(np.abs(blend + a)) <= 1e-15 * np.max(np.abs(a))


def test_quadrature_node_doubling():
    rng = np.random.default_rng(5)
    x = rng.uniform(-20.0, 20.0, size=(64, 2))
    xi = rng.normal(size=(64, 2)) * 5.0
    a = lambda1(x, xi, P1, nnode=24)
    b = lambda1(x, xi, P1, nnode=48)
    denom = np.maximum(np.abs(a), 1.0)
    assert np.max(np.abs(a - b) / denom) <= 1e-10


def test_gate_zero_region_exact():
    p = LambdaParams(M=1.0, h=2.0, s=1.8, sigma=0.5)
    xs = np.linspace(-5.0, 5.0, 21)
    for xi in (0.5, -1.9, 2.0, -2.0):
        v = lambda_sym(xs, np.full_like(xs, xi), p, dim=1)
        assert np.all(v == 0.0)
    v = lambda_sym(xs, np.full_like(xs, 4.5), p, dim=1)
    assert np.any(v != 0.0)


def test_lambda_sym_antisymmetric_in_xi():
    p = LambdaParams(M=1.0, h=2.0, s=1.8, sigma=0.5)
    xs = np.linspace(-6.0, 6.0, 25)
    for xi in (4.0, 5.5, 7.0):
        a = lambda_sym(xs, np.full_like(xs, xi), p, dim=1)
        b = lambda_sym(xs, np.full_like(xs, -xi), p, dim=1)
        assert np.max(np.abs(a + b)) <= 1e-15


def test_lambda_sym_sign_against_direction():
    p = LambdaParams(M=1.0, h=2.0, s=1.8, sigma=0.5)
    rng = np.random.default_rng(6)
    x = rng.uniform(-10.0, 10.0, size=(200, 2))
    xi = rng.normal(size=(200, 2)) * 8.0
    v = lambda_sym(x, xi, p)
    inner = np.sum(x * xi, axis=-1)
    assert np.all(v[inner > 0] <= 1e-15)
    assert np.all(v[inner < 0] >= -1e-15)


def test_c_of_lambda_frozen_value():
    # sup lambda / <x>^(1/2) at M=1, s=2, L=20; reference 1.73142296051497
    v = c_of_lambda(P1, 20.0, 4096, dim=1)
    assert v == pytest.approx(1.7314229605149696, rel=1e-9)


def test_lambda_on_grid_matches_pointwise():
    p = LambdaParams(M=1.0, h=1.0, s=1.8, sigma=0.5)
    g = Grid(dim=1, n=16, L=4.0)
    field = lambda_on_grid(g, p)
    for i, x in enumerate(g.x):
        for j, xi in enumerate(g.xi):
            if xi == 0.0:
                assert field[i, j] == 0.0
                continue
            assert field[i, j] == pytest.approx(
                lambda_sym(x, xi, p, dim=1), abs=1e-14
            )
    g2 = Grid(dim=2, n=8, L=3.0)
    field2 = lambda_on_grid(g2, p)
    assert field2.shape == g2.shape + g2.shape
    x1, x2 = g2.x_mesh
    X = np.stack([x1.ravel(), x2.ravel()], axis=-1)
    k1, k2 = g2.xi_mesh
    K = np.stack([k1.ravel(), k2.ravel()], axis=-1)
    flat = field2.reshape(64, 64)
    nz = np.sqrt(np.sum(K * K, axis=-1)) > 0
    idx = np.nonzero(nz)[0][:10]
    for j in idx:
        ref = lambda_sym(X, np.broadcast_to(K[j], X.shape), p)
        assert np.max(np.abs(flat[:, j] - ref)) <= 1e-14


def test_transport_1d_exact_branch():
    p = LambdaParams(M=1.0, h=2.0, s=1.8, sigma=0.5)
    g = Grid(dim=1, n=128, L=10.0)
    rep = transport_sign_check(g, p)
    assert rep["pass"]
    assert rep["violations"] == 0
    assert rep["directions_total"] == 1
    assert not rep["capped"]
    assert rep["rate_floor"] == pytest.approx(1.0, rel=1e-12)


def test_transport_2d_small_lattice():
    p = LambdaParams(M=1.0, h=2.0, s=1.8, sigma=0.5)
    g = Grid(dim=2, n=32, L=5.0)
    rep = transport_sign_check(g, p)
    assert rep["pass"]
    assert rep["violations"] == 0
    # the plateau margin is exactly zero, so the observed worst sits at
    # roundoff of the rate M <x>^(1/s-1) just below it
    assert rep["worst_margin"] > -1e-12


def test_transport_margin_doubles_with_m():
    g = Grid(dim=2, n=16, L=4.0)
    r1 = transport_sign_check(g, LambdaParams(M=1.0, h=2.0, s=1.8, sigma=0.5))
    r2 = transport_sign_check(g, LambdaParams(M=2.0, h=2.0, s=1.8, sigma=0.5))
    assert r2["rate_floor"] == pytest.approx(2.0 * r1["rate_floor"], rel=1e-12)


def test_blend_slope_matches_central_difference():
    # the closed-form slope against a central difference of the blend
    # along omega, with <x> recomputed at x +- e omega; the O(e^2)
    # truncation at e = 1e-4 is near 1e-8
    p = LambdaParams(M=1.0, h=2.0, s=1.8, sigma=0.5)
    w = np.array([0.6, 0.8])
    perp = np.array([-0.8, 0.6])
    ys = np.array([0.0, 0.7, -1.5, 2.0, -3.0, 5.0, 8.0, -12.0, 20.0])
    rs = np.array([0.0, 0.3, 1.0, 2.5, 6.0])
    Y, R = np.meshgrid(ys, rs, indexing="ij")
    x = Y.ravel()[:, None] * w + R.ravel()[:, None] * perp

    def geometry(pts):
        y = pts @ w
        xnorm2 = np.sum(pts * pts, axis=-1)
        return y, np.maximum(xnorm2 - y * y, 0.0), np.sqrt(1.0 + xnorm2)

    y, rho_sq, bx = geometry(x)
    u = np.abs(y) / bx
    assert np.any(u <= 0.5) and np.any((u > 0.6) & (u < 0.9)) and np.any(u > 0.99)
    e = 1e-4
    fd = (_blend(*geometry(x + e * w), p, 24) - _blend(*geometry(x - e * w), p, 24)) / (2.0 * e)
    exact = _blend_slope(y, rho_sq, bx, p, 24)
    assert np.max(np.abs(exact - fd)) <= 1e-7
    # on the plateau the slope is exactly the rate -M <x>^(1/s-1)
    plateau = u <= 0.5
    rate = (1.0 + rho_sq + y * y) ** (0.5 * (1.0 / p.s - 1.0))
    assert np.all(exact[plateau] == -rate[plateau])

    # the glue derivative against a central difference of the profile,
    # exactly zero off the band 1/2 < |u| < 1
    uu = np.linspace(-1.2, 1.2, 241)
    fd_glue = (_dir_profile(uu + 1e-5) - _dir_profile(uu - 1e-5)) / 2e-5
    assert np.max(np.abs(_dir_slope(uu) - fd_glue)) <= 1e-7
    off = (np.abs(uu) <= 0.5) | (np.abs(uu) >= 1.0)
    assert np.all(_dir_slope(uu)[off] == 0.0)


def test_gevrey_constant_insensitive_to_gate_threshold():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-6.0, 6.0, size=200)
    xis = np.where(rng.uniform(size=200) < 0.5, 1.0, -1.0) * rng.uniform(8.5, 12.0, size=200)

    def fitted(params):
        def fn(fixed, diff):
            return lambda_sym(diff[:, 0], fixed[:, 0], params, dim=1)

        rep = gevrey_bound_check(
            fn, xis, xs, theta=2.0, h=1.0, order=1.0 / params.s, max_order=2
        )
        return rep["C"]

    c1 = fitted(LambdaParams(M=1.0, h=1.0, s=1.8, sigma=0.5))
    c4 = fitted(LambdaParams(M=1.0, h=4.0, s=1.8, sigma=0.5))
    assert np.isfinite(c1) and c1 > 0
    assert abs(c4 - c1) <= 0.2 * c1
