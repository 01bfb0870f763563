"""Lattice and DFT convention checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaylab.grid import (
    _derivative_multiplier,
    _edge_phase,
    Grid,
    StateVector,
    apply_multiplier,
    forward_dft,
    inverse_dft,
    sample,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dim=1, n=1000, L=10.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid(dim=3, n=64, L=10.0)
    with pytest.raises(ValueError):
        Grid(dim=1, n=64, L=-1.0)


def test_nodes_and_frequencies():
    g = Grid(dim=1, n=8, L=4.0)
    assert g.dx == 1.0
    assert g.x[0] == -4.0
    assert g.x[-1] == 3.0  # right endpoint excluded
    assert np.allclose(np.diff(g.x), g.dx)
    assert g.dxi * g.dx == pytest.approx(2.0 * np.pi / g.n, rel=1e-15)
    assert list(g.k_int) == [0, 1, 2, 3, -4, -3, -2, -1]
    assert np.allclose(g.xi, g.dxi * g.k_int)
    assert np.all(np.abs(g.edge_signs) == 1.0)
    assert np.allclose(g.edge_signs, (-1.0) ** np.abs(g.k_int))


def test_nyquist_mask():
    g = Grid(dim=1, n=8, L=4.0)
    mask = g.nyquist_mask[0]
    assert mask.sum() == 1
    assert g.k_int[mask][0] == -4
    g2 = Grid(dim=2, n=8, L=4.0)
    assert g2.nyquist_mask[0].shape == g2.shape
    assert g2.nyquist_mask[0].sum() == 8  # one row of the lattice


def test_grid_fields_equal_their_closed_forms_exactly():
    # every field is computed once over grid.dim axes; in each dimension it
    # must equal the textbook formula bit for bit
    g1 = Grid(dim=1, n=16, L=2.7)
    assert np.array_equal(g1.x_norm, np.abs(g1.x))
    assert np.array_equal(g1.xi_norm, np.abs(g1.xi))
    assert np.array_equal(_edge_phase(g1), g1.edge_signs)
    (mask,) = g1.nyquist_mask
    assert np.array_equal(mask, g1.k_int == -8)
    g2 = Grid(dim=2, n=16, L=2.7)
    x1, x2 = np.meshgrid(g2.x, g2.x, indexing="ij")
    xi1, xi2 = np.meshgrid(g2.xi, g2.xi, indexing="ij")
    k1, k2 = np.meshgrid(g2.k_int, g2.k_int, indexing="ij")
    s = g2.edge_signs
    assert np.array_equal(g2.x_norm, np.hypot(x1, x2))
    assert np.array_equal(g2.xi_norm, np.hypot(xi1, xi2))
    assert np.array_equal(_edge_phase(g2), s[:, None] * s[None, :])
    assert len(g2.nyquist_mask) == 2
    assert np.array_equal(g2.nyquist_mask[0], k1 == -8)
    assert np.array_equal(g2.nyquist_mask[1], k2 == -8)


def test_dft_roundtrip_1d():
    g = Grid(dim=1, n=256, L=10.0)
    rng = np.random.default_rng(0)
    u = StateVector(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    back = inverse_dft(forward_dft(u))
    assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_dft_roundtrip_2d():
    g = Grid(dim=2, n=32, L=5.0)
    rng = np.random.default_rng(1)
    u = StateVector(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    back = inverse_dft(forward_dft(u))
    assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_dft_gaussian_analytic():
    # hat(exp(-x^2/2)) = sqrt(2 pi) exp(-xi^2/2) under the integral convention
    g = Grid(dim=1, n=256, L=20.0)
    u = sample(g, lambda x: np.exp(-0.5 * x * x))
    uhat = forward_dft(u)
    ref = np.sqrt(2.0 * np.pi) * np.exp(-0.5 * g.xi**2)
    assert np.max(np.abs(uhat.values - ref)) <= 1e-12


def test_parseval():
    g = Grid(dim=1, n=128, L=6.0)
    rng = np.random.default_rng(2)
    u = StateVector(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    uhat = forward_dft(u)
    lhs = np.sum(np.abs(u.values) ** 2) * g.dx
    rhs = np.sum(np.abs(uhat.values) ** 2) * g.dxi / (2.0 * np.pi)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_derivative_exact_on_modes():
    g = Grid(dim=1, n=64, L=np.pi)
    for m in (1, 5, -7):
        k0 = m * g.dxi
        u = StateVector(g, np.exp(1j * k0 * g.x))
        du = apply_multiplier(u, _derivative_multiplier(g, 0))
        assert np.max(np.abs(du.values - 1j * k0 * u.values)) <= 1e-11


def test_derivative_of_real_is_real():
    g = Grid(dim=1, n=64, L=5.0)
    rng = np.random.default_rng(3)
    u = StateVector(g, rng.normal(size=g.shape).astype(np.complex128))
    du = apply_multiplier(u, _derivative_multiplier(g, 0))
    assert np.max(np.abs(du.values.imag)) <= 1e-12 * np.max(np.abs(du.values.real))


def test_laplacian_gaussian():
    g = Grid(dim=1, n=512, L=20.0)
    u = sample(g, lambda x: np.exp(-0.5 * x * x))
    lap = apply_multiplier(u, -(g.xi_norm**2))
    ref = (u.values * (g.x**2 - 1.0)).astype(np.complex128)
    assert np.max(np.abs(lap.values - ref)) <= 1e-10


def test_laplacian_2d_mode():
    g = Grid(dim=2, n=32, L=np.pi)
    kx, ky = 3 * g.dxi, -5 * g.dxi
    u = sample(g, lambda x, y: np.exp(1j * (kx * x + ky * y)))
    lap = apply_multiplier(u, -(g.xi_norm**2))
    assert np.max(np.abs(lap.values + (kx**2 + ky**2) * u.values)) <= 1e-10


def test_multiplier_identity():
    g = Grid(dim=1, n=64, L=5.0)
    rng = np.random.default_rng(4)
    u = StateVector(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    v = apply_multiplier(u, np.ones(g.shape))
    assert np.max(np.abs(v.values - u.values)) <= 1e-13


def test_spectrum_is_shared_and_read_only():
    # every transform of one state reads its one spectrum, which is the
    # plain fftn of the values and cannot be written into
    g = Grid(dim=2, n=16, L=4.0)
    rng = np.random.default_rng(5)
    u = StateVector(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    assert u.spectrum is u.spectrum
    assert np.array_equal(u.spectrum, np.fft.fftn(u.values))
    assert np.array_equal(forward_dft(u).values, np.fft.fftn(u.values) * _edge_phase(g) * g.dx**2)
    with pytest.raises(ValueError):
        u.spectrum[0, 0] = 0.0


def test_same_layout():
    a = Grid(dim=1, n=64, L=5.0)
    b = Grid(dim=1, n=128, L=10.0)  # same dx
    c = Grid(dim=1, n=64, L=10.0)
    assert a.same_layout(b)
    assert not a.same_layout(c)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([8, 16, 32]),
    dim=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_roundtrip_property(n, dim, seed):
    g = Grid(dim=dim, n=n, L=3.0)
    rng = np.random.default_rng(seed)
    u = StateVector(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    back = inverse_dft(forward_dft(u))
    assert np.max(np.abs(back.values - u.values)) <= 1e-11
