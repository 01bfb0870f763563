"""Phase-weight construction: cutoffs, profile integrals, transport sign."""
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from decaylab import symbol
from decaylab.grid import Grid
from decaylab.symbol import (
    _blend,
    _blend_slope,
    _cutoff,
    _geometry,
    _primitive_directions,
    _profile_integral,
    ConjugationSchedule,
    LambdaParams,
    c_of_lambda,
    gevrey_bound_check,
    lambda_on_grid,
    lambda_sym,
    transport_sign_check,
)

P1 = LambdaParams(M=1.0, h=1.0, s=2.0, sigma=0.6)


def test_params_validation():
    with pytest.raises(ValueError):
        LambdaParams(M=1.0, h=1.0, s=2.5, sigma=0.5)  # s above 1/(1-sigma)
    with pytest.raises(ValueError):
        LambdaParams(M=1.0, h=1.0, s=2.0, sigma=0.5)  # s at 1/(1-sigma)
    with pytest.raises(ValueError):
        LambdaParams(M=1.0, h=0.5, s=1.8, sigma=0.5)  # h below one


def test_schedule_bound_and_closed_form():
    bound = 3.0 * (np.exp(0.5) - 1.0)
    with pytest.raises(ValueError):
        ConjugationSchedule(k0=bound * 0.99, Nconst=1.0, T=0.5, M=2.0)
    sched = ConjugationSchedule(k0=bound, Nconst=1.0, T=0.5, M=2.0)
    assert sched.k(0.0) == pytest.approx(bound, rel=1e-14)
    assert abs(sched.k(0.5)) <= 1e-12  # minimal k0 lands exactly at zero
    ts = np.linspace(0.0, 0.5, 11)
    # k solves k' + N k + N (M+1) = 0
    ode = sched.kprime(ts) + sched.Nconst * sched.k(ts) + sched.Nconst * (sched.M + 1.0)
    assert np.max(np.abs(ode)) <= 1e-12
    assert sched.k(0.0) > sched.k(0.25) > sched.k(0.5) - 1e-15
    with pytest.raises(ValueError):
        sched.k(0.6)
    with pytest.raises(ValueError):
        sched.k(-0.1)


def test_cutoff_exact_tails():
    r = np.array([0.0, 0.5, 1.0, 1.3, 1.7, 2.0, 3.0, -0.4, -2.5])
    v = _cutoff(r, 1.0, 2.0)[0]
    assert np.all(v[np.abs(r) <= 1.0] == 1.0)
    assert np.all(v[np.abs(r) >= 2.0] == 0.0)
    assert np.all((v >= 0.0) & (v <= 1.0))
    band = np.linspace(1.01, 1.99, 50)
    vb = _cutoff(band, 1.0, 2.0)[0]
    assert np.all(np.diff(vb) < 0.0)  # strictly decreasing across the band


def test_tilde_chi_plateau_and_support():
    # the direction blend is the cutoff on (1/2, 1) at u = x . omega / <x>
    def chi(u):
        return _cutoff(u, 0.5, 1.0)[0]

    # x . omega / <x> = 3/sqrt(10) ~ 0.95 -> outside plateau, inside support
    assert 0.0 < chi(3.0 / np.sqrt(10.0)) < 1.0
    assert chi(0.2 / np.sqrt(1.04)) == 1.0
    # 2d: x orthogonal to omega gives u = 0, on the plateau
    assert chi(0.0) == 1.0
    assert chi(1.0) == 0.0


def test_cutoff_and_its_slope_bitwise():
    # chi and chi' bit for bit the formula written out, for the direction
    # window (1/2, 1) and the frequency window (1, 2): at r = +-0, +-lo,
    # +-hi, NaN, +-inf, across the band, and where exp(-1/t) (|r| near hi)
    # or exp(-1/(1 - t)) (|r| near lo) underflows to 0 or to a subnormal;
    # a 0-d r gives 0-d results with the same bits
    for lo, hi in [(0.5, 1.0), (1.0, 2.0)]:
        w = hi - lo
        edge = [hi - 2e-4 * w, hi - w / 720.0, lo + 2e-4 * w, lo + w / 720.0]
        special = [0.0, -0.0, lo, -lo, hi, -hi, np.nan, np.inf, -np.inf]
        r = np.concatenate([special, edge, np.negative(edge), np.linspace(-1.2 * hi, 1.2 * hi, 481)])
        t = (hi - np.abs(r)) / w
        band = (t > 0.0) & (t < 1.0)
        tb = t[band]
        up, down = np.exp(-1.0 / tb), np.exp(-1.0 / (1.0 - tb))
        assert np.any(up == 0.0) and np.any(down == 0.0) and np.any((up > 0.0) & (up < np.finfo(np.float64).tiny))
        want = np.where(t >= 1.0, 1.0, 0.0)
        want[band] = up / (up + down)
        slope = np.zeros_like(r)
        slope[band] = (-1.0 / w) * np.sign(r[band]) * up * down * (1.0 / tb**2 + 1.0 / (1.0 - tb) ** 2) / (up + down) ** 2
        chi, dchi = _cutoff(r, lo, hi)
        assert chi.tobytes() == want.tobytes()
        assert dchi.tobytes() == slope.tobytes()
        assert np.all(dchi[~band] == 0.0) and np.all(chi[np.abs(r) <= lo] == 1.0)
        assert np.all(chi[np.isnan(r) | (np.abs(r) >= hi)] == 0.0)
        for i, ri in enumerate(r[: len(special) + 2 * len(edge)]):
            c0, d0 = _cutoff(ri, lo, hi)
            assert c0.shape == d0.shape == ()
            assert c0.tobytes() == chi[i].tobytes() and d0.tobytes() == dchi[i].tobytes()


def _lambda1(x, xi, params):
    """lambda1 as _blend builds it: M F(x . omega, |x|^2 - (x . omega)^2)
    on coordinate rows (..., d)."""
    y, rho_sq, _ = _geometry(np.asarray(x, dtype=np.float64), np.asarray(xi, dtype=np.float64))
    return params.M * _profile_integral(y, rho_sq, params.s)


def test_lambda1_1d_frozen_value():
    # int_0^1 (1+z^2)^(-1/4) dz, thirty-digit reference 0.937489750746936211
    v = _lambda1([[1.0]], [[3.0]], P1)[0]
    assert v == pytest.approx(0.9374897507469362, rel=1e-12)
    assert _lambda1([[1.0]], [[-3.0]], P1)[0] == pytest.approx(-v, rel=1e-14)


def test_lambda1_2d_frozen_value():
    # x=(1,1), xi=(0,3): y=1, transverse offset 1, int_0^1 (2+z^2)^(-1/4) dz
    v = _lambda1([[1.0, 1.0]], [[0.0, 3.0]], P1)[0]
    assert v == pytest.approx(0.8110832985667036, rel=1e-11)


def test_lambda_linear_in_m():
    p3 = LambdaParams(M=3.0, h=1.0, s=2.0, sigma=0.6)
    assert _lambda1([[0.0]], [[2.0]], p3)[0] == 0.0
    assert _lambda1([[1.3]], [[2.0]], p3)[0] == pytest.approx(
        3.0 * _lambda1([[1.3]], [[2.0]], P1)[0], rel=1e-14
    )


def test_lambda2_matches_lambda1_in_1d():
    # lambda2 = M F(y, 0) drops the transverse offset, which is zero in 1d
    xs = np.linspace(-8.0, 8.0, 33)
    xis = np.full_like(xs, 4.0)
    a = _lambda1(xs[:, None], xis[:, None], P1)
    b = P1.M * _profile_integral(xs, np.zeros_like(xs), P1.s)
    assert np.max(np.abs(a - b)) == 0.0
    # so the direction blend reduces to -lambda1
    blend = _blend(xs, np.zeros_like(xs), np.sqrt(1.0 + xs**2), P1)
    assert np.max(np.abs(blend + a)) <= 1e-15 * np.max(np.abs(a))


def test_blend_matches_two_profile_formula_bitwise(monkeypatch):
    # _blend integrates lambda2 only off the plateau chi = 1 and off the
    # line rho_sq = 0, where it reuses lambda1; the formula with both
    # profiles everywhere must give the same bits, signed zeros included, on
    # the plateau, in the band and where chi = 0, at rho_sq = 0 and off it
    p = LambdaParams(M=1.3, h=2.0, s=1.8, sigma=0.5)
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 3.0, -3.0]
    y = np.concatenate([rng.uniform(-30.0, 30.0, 500), special, special])
    rho_sq = np.concatenate(
        [rng.uniform(0.0, 900.0, 500) * (rng.uniform(size=500) < 0.8), np.zeros(8), np.full(8, -0.0)]
    )
    bx = np.sqrt(1.0 + y * y + rho_sq)
    ct = _cutoff(y / bx, 0.5, 1.0)[0]
    assert np.any(ct == 1.0) and np.any((ct > 0.0) & (ct < 1.0)) and np.any(ct == 0.0)
    line = rho_sq == 0.0
    assert np.any(line & (ct < 1.0)) and np.any(~line & (ct < 1.0))
    lam1 = p.M * _profile_integral(y, rho_sq, p.s)
    lam2 = p.M * _profile_integral(y, np.zeros_like(y), p.s)
    want = -(lam1 * ct + lam2 * (1.0 - ct))
    calls = []
    profile = symbol._profile_integral

    def counted(*args, **kwargs):
        calls.append(np.size(args[0]))
        return profile(*args, **kwargs)

    monkeypatch.setattr(symbol, "_profile_integral", counted)
    assert _blend(y, rho_sq, bx, p).tobytes() == want.tobytes()
    # lambda1 everywhere, then lambda2 only where chi < 1 off the line
    assert calls == [y.size, np.count_nonzero(~line & (ct < 1.0))]
    # a 1-D field has rho_sq = 0 throughout: one integral
    calls.clear()
    x = np.linspace(-30.0, 30.0, 257)
    bx1 = np.sqrt(1.0 + x * x)
    lam, ct1 = p.M * profile(x, 0.0, p.s), _cutoff(x / bx1, 0.5, 1.0)[0]
    want1 = -(lam * ct1 + lam * (1.0 - ct1))
    assert _blend(x, np.zeros_like(x), bx1, p).tobytes() == want1.tobytes()
    assert calls == [x.size]


def _profile_reference(y, rho_sq, s):
    # F(y, rho_sq) at 30 digits in closed form: |y| c^p 2F1(-p, 1/2; 3/2; -y^2/c)
    # with c = 1 + rho_sq and p = (1/s - 1)/2
    c = 1 + mp.mpf(rho_sq)
    p = (1 / mp.mpf(s) - 1) / 2
    a = abs(mp.mpf(y))
    return mp.sign(y) * a * c**p * mp.hyp2f1(-p, 0.5, 1.5, -a * a / c)


def test_profile_integral_against_mpmath():
    # the plain integral within 1e-14 relative, and the gap F(y, rho_sq) -
    # F(y, 0), as _blend_slope forms it, within 1e-14 of |F(y, 0)|, the
    # scale at which its two terms cancel; over |y| <= 60 and rho_sq <=
    # 2 L^2 at L = 40, with y = +-0, subnormal y and rho_sq = -0.0.  Below
    # the smallest normal float the errors are measured against it, since
    # no float64 value is closer than that in relative terms
    ys = np.concatenate([np.linspace(-60.0, 60.0, 41), [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-8, 1.5]])
    rhos = np.array([0.0, -0.0, 0.5, 3.0, 50.0, 800.0, 3200.0])
    Y, R = (a.ravel() for a in np.meshgrid(ys, rhos, indexing="ij"))
    tiny = np.finfo(np.float64).tiny
    with mp.workdps(30):
        for s in (1.1, 1.8, 2.0, 3.0):
            f0 = {y: _profile_reference(y, 0, s) for y in ys}
            want = [_profile_reference(y, r, s) for y, r in zip(Y, R)]
            got = _profile_integral(Y, R, s)
            gap = got - _profile_integral(Y, 0.0, s)
            err = np.array([float(abs(g - w)) for g, w in zip(got, want)])
            assert np.all(err <= 1e-14 * np.maximum(np.abs(np.array(want, dtype=np.float64)), tiny))
            gap_err = np.array([float(abs(g - (w - f0[y]))) for g, w, y in zip(gap, want, Y)])
            assert np.all(gap_err <= 1e-14 * np.maximum([float(abs(f0[y])) for y in Y], tiny))
    assert np.all(_profile_integral(np.array([0.0, -0.0]), np.array([0.0, 3200.0]), 1.1) == 0.0)


def test_profile_integral_is_per_point():
    # each point reads the table of its own u-panel k = floor(U / 0.75),
    # U = asinh(|y|/sqrt(1 + rho_sq)), with scalar coefficients, so y = 1 at
    # rho_sq = 0.5 (U = 0.75 less 0.005: panel 0) next to y = -14 at
    # rho_sq = 3 (U = 2.64: panel 3) gets the value it gets alone, bit for
    # bit
    alone = _profile_integral(np.array([1.0]), np.array([0.5]), 1.8)
    pair = _profile_integral(np.array([1.0, -14.0]), np.array([0.5, 3.0]), 1.8)
    assert pair[0] == alone[0]
    # in any batch, whatever its order and size (panels 0 to 6 here)
    rng = np.random.default_rng(11)
    y = rng.uniform(-60.0, 60.0, 3000)
    rho_sq = rng.uniform(0.0, 200.0, 3000)
    full = _profile_integral(y, rho_sq, 1.8)
    sub = rng.permutation(3000)[:700]
    assert np.array_equal(_profile_integral(y[sub], rho_sq[sub], 1.8), full[sub])
    assert all(_profile_integral(y[i : i + 1], rho_sq[i], 1.8)[0] == full[i] for i in sub[:50])
    # any input shape; the result has y's
    assert _profile_integral(y.reshape(30, 100), rho_sq.reshape(30, 100), 1.8).shape == (30, 100)
    assert np.array_equal(_profile_integral(y.reshape(30, 100), rho_sq.reshape(30, 100), 1.8).ravel(), full)
    assert _profile_integral(np.zeros((0, 2)), 1.0, 1.8).shape == (0, 2)


def _y_with_upper(targets, c):
    # y >= 0 whose U = asinh(y / sqrt(c)), formed as _profile_integral forms
    # it, is exactly each target: searched over the floats next to
    # sqrt(c) sinh(target)
    y = np.sqrt(c) * np.sinh(targets)
    for _ in range(64):
        got = np.arcsinh(y / np.sqrt(c))
        if np.array_equal(got, targets):
            return y
        y = np.where(got < targets, np.nextafter(y, np.inf), np.where(got > targets, np.nextafter(y, 0.0), y))
    raise AssertionError("no float lands on the target")


def test_profile_tables_against_mpmath_at_panel_edges():
    # the plain integral within 1e-14 relative and the gap within 1e-14 of
    # |F(y, 0)|, as in the test above, at U = k W (W = 0.75, the panel
    # edges) and one ulp either side, for k up to 19, and at |y| up to 1e6
    edges = np.arange(1, 20) * 0.75
    targets = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    big = np.array([1e3, -4.5e4, 2.5e5, -1e6, 1e6])
    with mp.workdps(30):
        for s in (1.05, 1.1, 1.8, 2.0, 3.0, 5.0):
            for r in (0.0, 3.0, 3200.0):
                y = np.concatenate([_y_with_upper(targets, 1.0 + r), big])
                y[::2] *= -1.0
                got = _profile_integral(y, r, s)
                gap = got - _profile_integral(y, 0.0, s)
                want = [_profile_reference(v, r, s) for v in y]
                want0 = [_profile_reference(v, 0, s) for v in y] if r else want
                err = np.array([float(abs(g - w)) for g, w in zip(got, want)])
                assert np.all(err <= 1e-14 * np.abs(np.array(want, dtype=np.float64)))
                gap_err = np.array([float(abs(g - (w - w0))) for g, w, w0 in zip(gap, want, want0)])
                assert np.all(gap_err <= 1e-14 * np.abs(np.array(want0, dtype=np.float64)))


def test_profile_tables_are_built_once_per_panel_and_read_only():
    # one table per (s, panel), built on first use and then only read:
    # C_k and the Chebyshev coefficients of Q_k
    symbol._panel_table.cache_clear()
    rng = np.random.default_rng(5)
    y = rng.uniform(-60.0, 60.0, 2000)
    rho_sq = rng.uniform(0.0, 200.0, 2000)
    panels = np.unique(np.floor(np.arcsinh(np.abs(y) / np.sqrt(1.0 + rho_sq)) / 0.75))
    for s in (1.8, 3.0, 1.8, 3.0):
        first = _profile_integral(y, rho_sq, s)
        assert np.array_equal(_profile_integral(y[::-1], rho_sq[::-1], s)[::-1], first)
    info = symbol._panel_table.cache_info()
    assert info.misses == info.currsize == 2 * panels.size
    for k in panels:
        cum, q = symbol._panel_table(1.8, int(k))
        assert q.shape == (16,) and not q.flags.writeable and (cum == 0.0) == (k == 0)
        with pytest.raises(ValueError):
            q[0] = 1.0


def _unique_rows_directions(k):
    # the sort-the-rows construction the integer keys replaced
    prim = k // np.gcd.reduce(np.abs(k), axis=1)[:, None]
    flip = (prim[:, 0] < 0) | ((prim[:, 0] == 0) & (prim[:, -1] < 0))
    prim[flip] *= -1
    prim, cls = np.unique(prim, axis=0, return_inverse=True)
    dirs = prim / np.sqrt(np.sum(prim * prim, axis=-1))[:, None]
    return dirs, cls.ravel(), np.where(flip, -1.0, 1.0)


@pytest.mark.parametrize("d", [1, 2])
def test_primitive_directions_match_sorted_rows(d):
    rng = np.random.default_rng(13 + d)
    for _ in range(10):
        k = rng.integers(-12, 13, size=(300, d))
        k = k[np.any(k != 0, axis=1)]
        got = _primitive_directions(k.copy())
        want = _unique_rows_directions(k.copy())
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        dirs, cls, sign = got
        assert np.allclose(sign[:, None] * dirs[cls], k / np.linalg.norm(k, axis=1)[:, None], rtol=0, atol=1e-15)


def test_primitive_directions_of_a_closed_gate():
    # no open node: no class, and the shapes the callers index with
    k = np.empty((0, 2), dtype=np.int64)
    got = _primitive_directions(k.copy())
    want = _unique_rows_directions(k.copy())
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
    assert got[0].shape == (0, 2)


def test_gate_zero_region_exact():
    p = LambdaParams(M=1.0, h=2.0, s=1.8, sigma=0.5)
    xs = np.linspace(-5.0, 5.0, 21)
    for xi in (0.5, -1.9, 2.0, -2.0):
        v = lambda_sym(xs[:, None], np.full((xs.size, 1), xi), p)
        assert np.all(v == 0.0)
    v = lambda_sym(xs[:, None], np.full((xs.size, 1), 4.5), p)
    assert np.any(v != 0.0)


def test_lambda_sym_antisymmetric_in_xi():
    p = LambdaParams(M=1.0, h=2.0, s=1.8, sigma=0.5)
    xs = np.linspace(-6.0, 6.0, 25)
    for xi in (4.0, 5.5, 7.0):
        a = lambda_sym(xs[:, None], np.full((xs.size, 1), xi), p)
        b = lambda_sym(xs[:, None], np.full((xs.size, 1), -xi), p)
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
    v = c_of_lambda(P1, 20.0, 4096)
    assert v == pytest.approx(1.7314229605149696, rel=1e-9)


def test_lambda_on_grid_matches_pointwise():
    # lambda_on_grid returns the gate's open nodes and their columns: every
    # open column equals lambda_sym, and lambda_sym is exactly 0 on every
    # closed column, so the omitted columns are the zero ones
    p = LambdaParams(M=1.0, h=1.0, s=1.8, sigma=0.5)
    g = Grid(dim=1, n=16, L=4.0)
    opened, cols = lambda_on_grid(g, p)
    assert cols.shape == (g.node_count, opened.size)
    assert np.all(np.diff(opened) > 0)
    assert 0 not in opened
    for i, x in enumerate(g.x):
        for j, xi in enumerate(g.xi):
            want = float(lambda_sym([x], [xi], p))
            if j not in opened:
                assert want == 0.0
                continue
            assert cols[i, np.searchsorted(opened, j)] == pytest.approx(want, abs=1e-14)
    # every column; at n=16, L=5, h=2 the gate is closed, in transition
    # and open on 37, 84 and 135 nodes, and 72 of the 88 direction
    # classes hold nodes of both antipodal signs
    lattices = (
        (Grid(dim=2, n=8, L=3.0), p),
        (Grid(dim=2, n=16, L=5.0), LambdaParams(M=1.0, h=2.0, s=1.8, sigma=0.5)),
    )
    for g2, p2 in lattices:
        opened, cols = lambda_on_grid(g2, p2)
        assert cols.shape == (g2.node_count, opened.size)
        assert np.all(np.diff(opened) > 0)
        x1, x2 = g2.x_mesh
        X = np.stack([x1.ravel(), x2.ravel()], axis=-1)
        k1, k2 = g2.xi_mesh
        K = np.stack([k1.ravel(), k2.ravel()], axis=-1)
        assert 0 not in opened
        for j in range(1, g2.node_count):
            ref = lambda_sym(X, np.broadcast_to(K[j], X.shape), p2)
            if j not in opened:
                assert np.all(ref == 0.0)
                continue
            assert np.max(np.abs(cols[:, np.searchsorted(opened, j)] - ref)) <= 1e-14


def test_lambda_on_grid_builds_no_full_field():
    # criterion 8's h-to-band ratio at n=4096: the gate is positive on 333
    # of 4096 columns, so the open columns stay far below the n x n field
    # (128 MiB) that must not be built; they are written in place, so the
    # peak is the result plus the blend's quadrature scratch, not twice the
    # result
    g = Grid(dim=1, n=4096, L=15.0)
    tracemalloc.start()
    try:
        field = lambda_on_grid(g, LambdaParams(M=1.0, h=384.0, s=1.8, sigma=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.node_count**2 * 8 / 4
    opened, cols = field
    assert cols.shape == (g.node_count, opened.size) == (4096, 333)
    assert peak <= 1.25 * cols.nbytes


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
    fd = (_blend(*geometry(x + e * w), p) - _blend(*geometry(x - e * w), p)) / (2.0 * e)
    exact = _blend_slope(y, rho_sq, bx, p)
    assert np.max(np.abs(exact - fd)) <= 1e-7
    # on the plateau the slope is exactly the rate -M <x>^(1/s-1)
    plateau = u <= 0.5
    rate = (1.0 + rho_sq + y * y) ** (0.5 * (1.0 / p.s - 1.0))
    assert np.all(exact[plateau] == -rate[plateau])

    # the glue derivative against a central difference of the profile,
    # exactly zero off the band 1/2 < |u| < 1
    uu = np.linspace(-1.2, 1.2, 241)
    fd_glue = (_cutoff(uu + 1e-5, 0.5, 1.0)[0] - _cutoff(uu - 1e-5, 0.5, 1.0)[0]) / 2e-5
    dchi = _cutoff(uu, 0.5, 1.0)[1]
    assert np.max(np.abs(dchi - fd_glue)) <= 1e-7
    off = (np.abs(uu) <= 0.5) | (np.abs(uu) >= 1.0)
    assert np.all(dchi[off] == 0.0)


def test_blend_slope_skips_the_gap_on_the_line_bitwise(monkeypatch):
    # where rho_sq = 0 the gap F(y, rho_sq) - F(y, 0) is exactly 0, so the
    # slope integrates it only off that line; the formula with the gap on
    # the whole band must give the same bits, and a 1-D slope takes no
    # integral
    p = LambdaParams(M=1.3, h=2.0, s=1.8, sigma=0.5)
    rng = np.random.default_rng(17)
    y = rng.uniform(-30.0, 30.0, 600)
    rho_sq = rng.uniform(0.0, 900.0, 600) * (rng.uniform(size=600) < 0.7)
    rho_sq[:20] = -0.0
    bx = np.sqrt(1.0 + y * y + rho_sq)
    u = y / bx
    ct, dchi = _cutoff(u, 0.5, 1.0)
    dct = dchi * (1.0 + rho_sq) / bx**3
    band = dct != 0.0
    assert np.any(band & (rho_sq == 0.0)) and np.any(band & (rho_sq != 0.0))
    pw = 0.5 * (1.0 / p.s - 1.0)
    want = p.M * (1.0 + rho_sq + y * y) ** pw * ct + p.M * (1.0 + y * y) ** pw * (1.0 - ct)
    gap = _profile_integral(y[band], rho_sq[band], p.s) - _profile_integral(y[band], 0.0, p.s)
    want[band] += p.M * gap * dct[band]
    calls = []
    profile = symbol._profile_integral

    def counted(*args, **kwargs):
        calls.append(np.size(args[0]))
        return profile(*args, **kwargs)

    monkeypatch.setattr(symbol, "_profile_integral", counted)
    assert _blend_slope(y, rho_sq, bx, p).tobytes() == (-want).tobytes()
    assert calls == [np.count_nonzero(band & (rho_sq != 0.0))] * 2
    calls.clear()
    x = np.linspace(-30.0, 30.0, 257)
    _blend_slope(x, np.zeros_like(x), np.sqrt(1.0 + x * x), p)
    assert calls == []


def test_gevrey_constant_insensitive_to_gate_threshold():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-6.0, 6.0, size=200)
    xis = np.where(rng.uniform(size=200) < 0.5, 1.0, -1.0) * rng.uniform(8.5, 12.0, size=200)

    def fitted(params):
        def fn(nodes):
            return [lambda_sym(nodes[:, None], xis[:, None], params)]

        (rep,) = gevrey_bound_check(fn, xs, [1.0 / params.s])
        return rep["C"]

    c1 = fitted(LambdaParams(M=1.0, h=1.0, s=1.8, sigma=0.5))
    c4 = fitted(LambdaParams(M=1.0, h=4.0, s=1.8, sigma=0.5))
    assert np.isfinite(c1) and c1 > 0
    assert abs(c4 - c1) <= 0.2 * c1
