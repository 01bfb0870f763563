"""Closed-form families: residuals, correctors, growth hypotheses."""
import dataclasses

import numpy as np
import pytest

from decaylab.examples import example1, example2, example3, residual_check, hypothesis_check
from decaylab.grid import Grid, sample


def test_parameter_ranges():
    with pytest.raises(ValueError):
        example1(0.0, 1.8)
    with pytest.raises(ValueError):
        example1(0.5, 1.0)
    with pytest.raises(ValueError):
        example1(0.5, 2.0)  # needs s strictly below 1/(1-sigma)
    with pytest.raises(ValueError):
        example2(1.5)
    with pytest.raises(ValueError):
        example2(0.5, T=1.2)
    with pytest.raises(ValueError):
        example3(0.5, 2.5)
    example1(0.5, 1.99)
    example3(0.5, 2.0)  # borderline admitted here


def test_initial_state_matches_datum():
    for ep in (example1(0.5, 1.8), example2(0.5), example3(0.5, 1.8)):
        g = Grid(dim=1, n=256, L=20.0)
        u0 = sample(g, ep.problem.g)
        assert np.max(np.abs(u0.values - ep.u_exact(0.0, g.x))) <= 1e-14


def test_residuals_vanish_on_wide_grid():
    g = Grid(dim=1, n=1024, L=40.0)
    ts = (0.0, 0.125, 0.25, 0.375, 0.5)
    for ep in (example1(0.5, 1.8), example2(0.5), example3(0.5, 1.8)):
        rep = residual_check(ep, g, ts)
        assert rep["max_residual"] <= 1e-12


def test_residual_check_needs_one_dimension():
    ep = example1(0.5, 1.8)
    with pytest.raises(ValueError):
        residual_check(ep, Grid(dim=2, n=16, L=5.0), (0.0,))


def test_residual_detects_coefficient_perturbation():
    # the identity is exact, so a constant added to b surfaces verbatim
    ep = example1(0.5, 1.8)
    g = Grid(dim=1, n=128, L=10.0)
    bumped = dataclasses.replace(
        ep.problem, b=lambda t, x, _b=ep.problem.b: _b(t, x) + 0.01
    )
    rep = residual_check(dataclasses.replace(ep, problem=bumped), g, (0.25,))
    assert rep["max_residual"] == pytest.approx(0.01, rel=1e-9)


def test_corrector_frozen_values():
    # Im b derived symbolically once; Im a and Re b = -<x>^(1/2) frozen
    pts = [(0.3, 1.7), (0.5, -3.2)]
    re_b = [-1.4043889391232052, -1.8310136326221174]
    want = {
        "example1": {"b_im": [0.10181072208558866, 0.07122312972277568],
                     "a_im": [0.09206148572658544, -0.13032125499089803]},
        "example2": {"b_im": [0.014454938658113495, 0.014927812793663809],
                     "a_im": [-0.2148101333620327, 0.13032125499089803]},
        "example3": {"b_im": [0.13654497851356579, 0.09079314702131888],
                     "a_im": [0.09206148572658544, -0.13032125499089803]},
    }
    eps = {
        "example1": example1(0.5, 1.8),
        "example2": example2(0.5),
        "example3": example3(0.5, 1.8),
    }
    for name, ep in eps.items():
        for k, (t, x) in enumerate(pts):
            a = complex(ep.problem.a[0](t, np.array([x]))[0])
            b = complex(ep.problem.b(t, np.array([x]))[0])
            assert a.real == 0.0
            assert a.imag == pytest.approx(want[name]["a_im"][k], rel=1e-12)
            assert b.real == pytest.approx(re_b[k], rel=1e-12)
            assert b.imag == pytest.approx(want[name]["b_im"][k], rel=1e-12)


def test_real_part_of_b_is_minus_growth_rate():
    ep = example1(0.5, 1.8)
    x = np.linspace(-10.0, 10.0, 41)
    for t in (0.0, 0.3):
        re_b = np.real(ep.problem.b(t, x))
        assert np.max(np.abs(re_b + np.sqrt(1.0 + x * x) ** 0.5)) <= 1e-13


def test_growth_identity_example3():
    ep = example3(0.5, 1.8)
    x = np.linspace(-15.0, 15.0, 101)
    t = 0.37
    lhs = np.log(np.abs(ep.u_exact(t, x))) - np.log(np.abs(ep.u_exact(0.0, x)))
    assert np.max(np.abs(lhs - t * np.sqrt(1.0 + x * x) ** 0.5)) <= 1e-12


def test_phase_derivative_consistency():
    # stored derivative evaluators against central differences
    ep = example1(0.5, 1.8)
    x = np.linspace(-8.0, 8.0, 33)
    e = 1e-5
    for t in (0.2, 0.5):
        fd_x = (ep.phi(t, x + e) - ep.phi(t, x - e)) / (2 * e)
        assert np.max(np.abs(fd_x - ep.phi_x(t, x))) <= 1e-8
        fd_t = (ep.phi(t + e, x) - ep.phi(t - e, x)) / (2 * e)
        assert np.max(np.abs(fd_t - ep.phi_t(t, x))) <= 1e-8
        fd_xx = (ep.phi_x(t, x + e) - ep.phi_x(t, x - e)) / (2 * e)
        assert np.max(np.abs(fd_xx - ep.phi_xx(t, x))) <= 1e-7


def test_class_membership_metadata():
    assert example1(0.5, 1.8).rho2_data == 1.0
    assert example3(0.5, 1.8).rho2_data == -1.0
    assert example1(0.5, 1.8).problem.s0 == 1.8
    assert example2(0.5).problem.s0 == pytest.approx(2.0)
    assert example2(0.25).problem.s0 == pytest.approx(4.0 / 3.0)


def test_coefficient_growth_hypotheses():
    for ep in (example1(0.5, 1.8), example2(0.5), example3(0.5, 1.8)):
        rep = hypothesis_check(ep)
        assert rep["pass"]
        assert rep["re_a_zero"]
        assert np.isfinite(rep["C_max"])
        assert rep["fits"]["a_im"]["order"] == pytest.approx(-0.5)
