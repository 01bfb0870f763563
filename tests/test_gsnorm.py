"""Weighted norm checks against closed forms and an arbitrary-precision reference."""
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaylab.examples import example1
from decaylab.grid import Grid, StateVector, sample
from decaylab.gsnorm import GsIndices, gs_norm_ex, norm_box_sweep, pigr_apply


def gaussian_state(n=256, L=20.0):
    g = Grid(dim=1, n=n, L=L)
    return sample(g, lambda x: np.exp(-0.5 * x * x))


def test_indices_validation():
    with pytest.raises(ValueError):
        GsIndices(s=1.0)
    with pytest.raises(ValueError):
        GsIndices(theta=0.5)
    idx = GsIndices(m1=1.0, m2=-0.5, rho1=0.0, rho2=2.0, s=1.8, theta=2.0)
    assert idx.label() == "H_1_-0.5_0_2_1.8_2"


def test_zero_indices_is_identity():
    u = gaussian_state()
    out = pigr_apply(u, GsIndices())
    assert np.max(np.abs(out.values - u.values)) <= 1e-12


def test_zero_indices_norm_is_l2():
    u = gaussian_state()
    assert gs_norm_ex(u, GsIndices()).value == pytest.approx(u.l2_norm(), rel=1e-13)


def test_gaussian_l2_value():
    # ||exp(-x^2/2)||_L2 = pi^(1/4); box truncation at L=20 is far below rounding
    u = gaussian_state()
    assert gs_norm_ex(u, GsIndices()).value == pytest.approx(np.pi**0.25, rel=1e-12)


def test_weight_m2_analytic():
    # ||<x> exp(-x^2/2)||^2 = int (1+x^2) e^{-x^2} = (3/2) sqrt(pi)
    u = gaussian_state()
    ref = np.sqrt(1.5 * np.sqrt(np.pi))
    assert gs_norm_ex(u, GsIndices(m2=1.0)).value == pytest.approx(ref, rel=1e-12)


def test_weight_m1_on_pure_mode():
    g = Grid(dim=1, n=64, L=np.pi)
    k0 = 5 * g.dxi
    u = StateVector(g, np.exp(1j * k0 * g.x))
    ref = (1.0 + k0 * k0) ** 0.75 * np.sqrt(2.0 * g.L)
    assert gs_norm_ex(u, GsIndices(m1=1.5)).value == pytest.approx(ref, rel=1e-11)


def test_weight_rho2_matches_direct_sum():
    u = gaussian_state(n=128, L=10.0)
    idx = GsIndices(rho2=0.7, s=1.6)
    w = np.exp(0.7 * (1.0 + u.grid.x**2) ** (1.0 / (2 * 1.6)))
    ref = np.sqrt(np.sum(np.abs(w * u.values) ** 2) * u.grid.dx)
    assert gs_norm_ex(u, idx).value == pytest.approx(ref, rel=1e-12)


def test_weight_rho1_matches_manual_fft():
    u = gaussian_state(n=128, L=10.0)
    g = u.grid
    idx = GsIndices(rho1=0.1, theta=2.0)
    w = np.exp(0.1 * (1.0 + g.xi**2) ** 0.25)
    # boundary phases are unimodular, so coefficient magnitudes need no sign fixup
    coef = np.fft.fft(u.values)
    ref = np.sqrt(np.sum(np.abs(w * coef) ** 2) * g.dx / g.n)
    assert gs_norm_ex(u, idx).value == pytest.approx(ref, rel=1e-11)


def test_index_sets_on_one_state_share_one_transform(monkeypatch):
    # the first frequency factor of every index set reads the state's one
    # spectrum: two rho1 != 0 sets make one forward FFT between them
    u = gaussian_state(n=128, L=10.0)
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda a: calls.append(1) or fftn(a))
    gs_norm_ex(u, GsIndices(rho1=0.1, theta=2.0))
    gs_norm_ex(u, GsIndices(rho1=0.2, m2=1.0, theta=1.5))
    assert len(calls) == 1


def test_factor_order_m2_before_rho2_applied_right_first():
    # Pi u = <x>^{m2} exp(rho2 <x>^{1/s}) u pointwise when no frequency factors act,
    # so the order is observable only through the combined pointwise weight
    u = gaussian_state(n=64, L=8.0)
    idx = GsIndices(m2=-2.0, rho2=0.5, s=2.0)
    br = (1.0 + u.grid.x**2) ** 0.5
    w = br**-2.0 * np.exp(0.5 * br**0.5)
    out = pigr_apply(u, idx)
    assert np.max(np.abs(out.values - w * u.values)) <= 1e-12 * np.max(np.abs(w * u.values))


def test_overflow_reports_log_value():
    g = Grid(dim=1, n=16, L=4.0)
    u = StateVector(g, np.ones(g.shape, dtype=np.complex128))
    idx = GsIndices(rho2=400.0, s=2.0)
    res = gs_norm_ex(u, idx)
    assert res.overflow
    assert res.value == np.inf
    mp.mp.dps = 40
    total = mp.mpf(0)
    for x in g.x:
        br = mp.sqrt(1 + mp.mpf(float(x)) ** 2)
        total += mp.e ** (2 * 400 * mp.sqrt(br)) * mp.mpf(float(g.dx))
    ref_log = float(0.5 * mp.log(total))
    assert res.log_value == pytest.approx(ref_log, rel=1e-12)


@pytest.mark.parametrize(
    "idx", [GsIndices(m1=1.0, rho2=90.0), GsIndices(rho1=0.1, rho2=90.0)], ids=["m1", "rho1"]
)
def test_log_value_is_homogeneous_across_the_squaring_window(idx):
    # at rho2=90 the squares of W u for example 1's datum pass e^709 while
    # its norm (about e^399) is representable: scaling u by e^-300 brings
    # the squares back into range and must shift the log-norm by exactly 300
    g = Grid(dim=1, n=256, L=20.0)
    u = sample(g, example1(0.5, 1.8).problem.g)
    full = gs_norm_ex(u, idx)
    low = gs_norm_ex(StateVector(g, np.exp(-300.0) * u.values), idx)
    assert np.isfinite(full.value) and not full.overflow
    assert full.value == pytest.approx(np.exp(full.log_value), rel=1e-13)
    assert full.log_value == pytest.approx(low.log_value + 300.0, abs=1e-11)


def test_pointwise_norm_is_the_log_domain_formula_bitwise():
    # with no frequency factor the norm is 1/2 (logsumexp(2 (logw + log|u|))
    # + d log dx), logw = m2 log<x> + rho2 <x>^(1/s), with nothing rescaled
    u = gaussian_state(n=128, L=10.0)
    g = u.grid
    bx = np.sqrt(1.0 + g.x_norm**2)
    for idx in (GsIndices(), GsIndices(m2=-1.0, rho2=0.3, s=1.8), GsIndices(m2=2.0, rho2=400.0)):
        logw = idx.m2 * np.log(bx) + idx.rho2 * bx ** (1.0 / idx.s)
        terms = (2.0 * (logw + np.log(np.abs(u.values)))).ravel()
        top = float(terms.max())
        lse = top + float(np.log(np.sum(np.exp(terms - top))))
        assert gs_norm_ex(u, idx).log_value == 0.5 * (lse + g.dim * np.log(g.dx))


@pytest.mark.parametrize(
    "idx", [GsIndices(), GsIndices(m1=1.0, rho2=0.5), GsIndices(m2=1.0, rho1=0.1)], ids=["pointwise", "m1", "rho1"]
)
def test_nan_entry_makes_the_norm_nan(idx):
    g = Grid(dim=1, n=16, L=4.0)
    one_nan = np.ones(g.shape, dtype=np.complex128)
    one_nan[3] = np.nan
    for vals in (one_nan, np.full(g.shape, np.nan + 0j)):
        res = gs_norm_ex(StateVector(g, vals), idx)
        assert np.isnan(res.value) and np.isnan(res.log_value)
    assert np.isnan(pigr_apply(StateVector(g, one_nan), idx).values[3])


def test_infinite_entry_and_zero_state():
    g = Grid(dim=1, n=16, L=4.0)
    vals = np.ones(g.shape, dtype=np.complex128)
    vals[3] = -np.inf
    for idx in (GsIndices(), GsIndices(m2=1.0, rho2=0.5)):
        res = gs_norm_ex(StateVector(g, vals), idx)
        assert res.value == np.inf and res.log_value == np.inf and res.overflow
    # the DFT of an infinite entry is undefined: through a frequency factor
    # the norm is NaN, not a value it did not compute
    with np.errstate(invalid="ignore"):
        assert np.isnan(gs_norm_ex(StateVector(g, vals), GsIndices(m1=1.0)).value)
    zero = StateVector(g, np.zeros(g.shape, dtype=np.complex128))
    for idx in (GsIndices(), GsIndices(m1=1.0, rho2=0.5), GsIndices(rho1=0.1), GsIndices(rho2=400.0)):
        res = gs_norm_ex(zero, idx)
        assert (res.value, res.log_value, res.overflow) == (0.0, -np.inf, False)
        # zeros stay zero where the weight itself overflows
        assert np.array_equal(pigr_apply(zero, idx).values, zero.values)


def test_box_sweep_frozen_values():
    # u(t,x) = exp(t<x>^{1/2} - <x>^{5/9}) at t=0.5 with weight exp(rho2 <x>^{5/9});
    # continuum references from a 30-digit quadrature, Riemann-sum gap under 1%
    t, s = 0.5, 1.8
    states = []
    for L in (20.0, 40.0, 80.0):
        g = Grid(dim=1, n=int(2 * L / 0.15625), L=L)
        br = (1.0 + g.x**2) ** 0.5
        states.append(StateVector(g, np.exp(t * br ** 0.5 - br ** (1.0 / s))))
    rows = norm_box_sweep(states, GsIndices(rho2=1.0, s=s))
    ref = {20.0: 35.07427633, 40.0: 109.1609297, 80.0: 493.6334749}
    for row in rows:
        assert row.norm == pytest.approx(ref[row.L], rel=1e-2)
        assert not row.overflow
    assert rows[2].norm / rows[0].norm >= 10.0

    rows95 = norm_box_sweep(states, GsIndices(rho2=0.95, s=s))
    # true tail behaviour: still divergent at desk scale, ratio about 3.8
    assert rows95[2].norm / rows95[1].norm - 1.0 == pytest.approx(2.796620518, rel=2e-2)


def test_sweep_rejects_bad_ladders():
    u1 = gaussian_state(n=64, L=8.0)
    u2 = gaussian_state(n=128, L=16.0)
    with pytest.raises(ValueError):
        norm_box_sweep([u1], GsIndices())
    with pytest.raises(ValueError):
        norm_box_sweep([u2, u1], GsIndices())  # L not increasing
    u3 = gaussian_state(n=64, L=16.0)  # different dx
    with pytest.raises(ValueError):
        norm_box_sweep([u1, u3], GsIndices())


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=500),
)
def test_norm_scales_linearly(scale, seed):
    g = Grid(dim=1, n=32, L=4.0)
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    idx = GsIndices(m1=0.5, m2=-1.0, rho1=0.05, rho2=0.3, s=2.0, theta=2.0)
    a = gs_norm_ex(StateVector(g, vals), idx).value
    b = gs_norm_ex(StateVector(g, scale * vals), idx).value
    assert b == pytest.approx(scale * a, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_triangle_inequality(seed):
    g = Grid(dim=1, n=32, L=4.0)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    v = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    idx = GsIndices(m1=0.3, m2=0.7, rho1=0.02, rho2=0.1, s=1.9, theta=2.1)
    nu = gs_norm_ex(StateVector(g, u), idx).value
    nv = gs_norm_ex(StateVector(g, v), idx).value
    nuv = gs_norm_ex(StateVector(g, u + v), idx).value
    assert nuv <= nu + nv + 1e-10 * (nu + nv)
