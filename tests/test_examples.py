"""Closed-form families: residuals, correctors, growth hypotheses."""
import dataclasses
import sys
import threading

import numpy as np
import pytest

from decaylab.examples import _family, example1, example2, example3, residual_check, hypothesis_check
from decaylab.grid import Grid, sample


def _direct_coefficients(sigma, s, eps, t0=0.0):
    """phi, its derivatives, a and b of the family by the direct formulas,
    each call from scratch: the reference the per-grid parts are checked
    against."""
    q = 1.0 / s

    def bp(x, p):
        return (1.0 + x * x) ** (0.5 * p)

    def phi(t, x):
        x = np.asarray(x, dtype=np.float64)
        return (t - t0) * bp(x, 1.0 - sigma) + eps * bp(x, q)

    def phi_t(t, x):
        return bp(np.asarray(x, dtype=np.float64), 1.0 - sigma)

    def phi_x(t, x):
        x = np.asarray(x, dtype=np.float64)
        # d/dx <x>^p = p x <x>^(p-2)
        return (t - t0) * (1.0 - sigma) * x * bp(x, -sigma - 1.0) + eps * q * x * bp(x, q - 2.0)

    def phi_xx(t, x):
        x = np.asarray(x, dtype=np.float64)
        # d2/dx2 <x>^p = p <x>^(p-2) + p (p-2) x^2 <x>^(p-4)
        grow = (t - t0) * (1.0 - sigma) * (bp(x, -sigma - 1.0) + (-sigma - 1.0) * x * x * bp(x, -sigma - 3.0))
        return grow + eps * q * (bp(x, q - 2.0) + (q - 2.0) * x * x * bp(x, q - 4.0))

    def a1(t, x):
        x = np.asarray(x, dtype=np.float64)
        return 1j * ((t - t0) * (1.0 - sigma) * x * bp(x, -sigma - 1.0))

    def b(t, x):
        x = np.asarray(x, dtype=np.float64)
        x2 = x * x
        r2 = 1.0 + x2
        grow = bp(x, -sigma - 1.0)
        c = (t - t0) * (1.0 - sigma) * grow * (1.0 + (-sigma - 1.0) * x2 / r2)
        if eps != 0.0:
            al = (t - t0) * (1.0 - sigma) * x * grow
            decay = bp(x, q - 2.0)
            px = al + eps * q * x * decay
            c = c + eps * q * decay * (1.0 + (q - 2.0) * x2 / r2) + px * px - al * px
        return -r2 * grow + 1j * c

    return {"phi": phi, "phi_t": phi_t, "phi_x": phi_x, "phi_xx": phi_xx, "a": a1, "b": b}


# (member, its (sigma, s, eps, t0)): examples 1-3 and the sharpness upper family
MEMBERS = [
    (lambda: example1(0.5, 1.8), (0.5, 1.8, -1.0, 0.0)),
    (lambda: example2(0.5), (0.5, 2.0, 0.0, 1.0)),
    (lambda: example3(0.5, 1.8), (0.5, 1.8, 1.0, 0.0)),
    (lambda: _family(0.5, 2.5, -1.0, 0.5, "sharpness-upper", 1.0), (0.5, 2.5, -1.0, 0.0)),
]


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
        rep = hypothesis_check(ep.problem)
        assert rep["pass"]
        assert rep["re_a_zero"]
        assert np.isfinite(rep["C_max"])
        assert rep["fits"]["a_im"]["order"] == pytest.approx(-0.5)


@pytest.mark.parametrize("make, params", MEMBERS)
def test_coefficient_parts_match_direct_formulas(make, params):
    # a, b, phi and phi_t keep the direct formulas' expressions; phi_x and
    # phi_xx add the same parts in another order, to 2e-15 of their size
    ep = make()
    t0 = params[3]
    grid = Grid(dim=1, n=512, L=40.0)
    direct = _direct_coefficients(*params)
    closures = {"a": ep.problem.a[0], "b": ep.problem.b}
    closures.update((name, getattr(ep, name)) for name in ("phi", "phi_t", "phi_x", "phi_xx"))
    for name, fn in closures.items():
        rel = 2e-15 if name in ("phi_x", "phi_xx") else 1e-14
        for t in sorted({t0, 0.0, 0.1, 0.25, 0.5, 1.0}):
            for x in (grid.x, np.linspace(-25.0, 25.0, 257)):
                got, want = fn(t, x), direct[name](t, x)
                for part in (np.real, np.imag):
                    # relative to the part's size; a part that vanishes
                    # (Re a, Im b at t = t0 for example 2) must vanish exactly
                    scale = float(np.max(np.abs(part(want))))
                    assert np.max(np.abs(part(got) - part(want))) <= rel * scale, (name, t)
    closures["g"] = lambda t, x: ep.problem.g(x)
    for name, fn in closures.items():
        # a hit on grid.x (its second call) equals a miss on an equal-valued
        # copy to the bit
        fn(0.25, grid.x)
        hit = fn(0.25, grid.x)
        miss = fn(0.25, grid.x.copy())
        assert hit.tobytes() == miss.tobytes(), name
        # every call returns its own array
        first = fn(0.25, grid.x)
        keep = first.copy()
        first[:] = 7.0
        assert fn(0.25, grid.x).tobytes() == keep.tobytes(), name


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda p: {"dim": 2, "a": p.a * 2}, id="two-dimensional"),
        pytest.param(lambda p: {"a": (None,)}, id="no-a"),
        pytest.param(lambda p: {"b": None}, id="no-b"),
    ],
)
def test_hypothesis_check_refuses_what_it_cannot_read(change):
    prob = example1(0.5, 1.8).problem
    with pytest.raises(ValueError):
        hypothesis_check(dataclasses.replace(prob, **change(prob)))


def test_hypothesis_check_on_fresh_arrays_matches_direct_formulas():
    # hypothesis_check samples on node arrays new to the family, so the
    # calls build their parts: same calls and, to 1e-12, the same fits as
    # the direct formulas
    calls = {}

    def counted(name, fn):
        def wrapped(t, x):
            calls[name] = calls.get(name, 0) + 1
            return fn(t, x)

        return wrapped

    ep = example1(0.5, 1.8)
    direct = _direct_coefficients(0.5, 1.8, -1.0)
    ref = dataclasses.replace(ep.problem, a=(counted("ref a", direct["a"]),), b=counted("ref b", direct["b"]))
    new = dataclasses.replace(ep.problem, a=(counted("a", ep.problem.a[0]),), b=counted("b", ep.problem.b))
    got, want = hypothesis_check(new), hypothesis_check(ref)
    # three times on each of three node arrays; a serves Im a and Re a, b serves Re b and Im b
    assert calls == {"a": 9, "b": 9, "ref a": 9, "ref b": 9}
    assert got["pass"] and want["pass"]
    assert got["re_a_max"] == want["re_a_max"] == 0.0
    for name, fit in want["fits"].items():
        assert got["fits"][name]["C"] == pytest.approx(fit["C"], rel=1e-12)
        for k, v in fit["per_beta"].items():
            assert got["fits"][name]["per_beta"][k] == pytest.approx(v, rel=1e-12)


@pytest.mark.parametrize("make", [lambda: example1(0.5, 1.8), lambda: example2(0.5), lambda: example3(0.5, 1.8)],
                         ids=["example1", "example2", "example3"])
def test_hypothesis_check_builds_parts_once_per_node_array(make):
    # the family's one slot holds the array it last sampled on, so a call
    # builds parts exactly when its array is not the previous call's
    ep = make()
    seen = []

    def recorded(fn):
        def wrapped(t, x):
            seen.append(x)  # held, so the ids below stay distinct
            return fn(t, x)

        return wrapped

    prob = dataclasses.replace(ep.problem, a=(recorded(ep.problem.a[0]),), b=recorded(ep.problem.b))
    rep = hypothesis_check(prob)
    builds = sum(1 for i, x in enumerate(seen) if i == 0 or x is not seen[i - 1])
    assert len(seen) == 18
    assert len({id(x) for x in seen}) == 3
    assert builds == 3
    assert rep == hypothesis_check(make().problem)


def _nan_at_node(fn, *, t_nan, shifted):
    # one NaN at node 100, at t_nan (every t for None), on the unshifted
    # 257-node array or on the arrays hypothesis_check shifts by +-step
    def wrapped(t, x):
        out = np.array(fn(t, x), dtype=np.complex128)
        if (t_nan is None or t == t_nan) and (x[0] != -20.0) == shifted:
            out[100] = complex(np.nan, np.nan)
        return out

    return wrapped


@pytest.mark.parametrize(
    "slot, t_nan, shifted",
    [pytest.param("b", None, False, id="b"), pytest.param("a", 0.25, True, id="a-second-t")],
)
def test_hypothesis_check_fails_on_one_nan_sample(slot, t_nan, shifted):
    # a NaN that is not the first of the values a maximum is taken over must
    # still reach the result: Python's max would drop it and pass the check
    ep = example1(0.5, 1.8)
    prob = ep.problem
    if slot == "b":
        prob = dataclasses.replace(prob, b=_nan_at_node(prob.b, t_nan=t_nan, shifted=shifted))
    else:
        prob = dataclasses.replace(prob, a=(_nan_at_node(prob.a[0], t_nan=t_nan, shifted=shifted),))
    rep = hypothesis_check(prob)
    assert rep["pass"] is False
    assert np.isnan(rep["C_max"])
    assert np.isnan(rep["re_a_max"]) == (slot == "a")


def test_coefficient_slot_is_safe_across_threads():
    # no command samples a family from two threads, but a library caller
    # may; with the slot switching between two arrays under a short switch
    # interval, every call must still return its own array's values
    ep = example1(0.5, 1.8)
    direct = _direct_coefficients(0.5, 1.8, -1.0)
    xs = (Grid(dim=1, n=256, L=20.0).x, np.linspace(-30.0, 30.0, 256))
    wants = [[direct[name](0.3, x) for name in ("a", "b")] for x in xs]
    bad = []

    def worker(k):
        try:
            for i in range(300):
                j = (i + k) % 2
                for fn, want in zip((ep.problem.a[0], ep.problem.b), wants[j]):
                    if np.max(np.abs(fn(0.3, xs[j]) - want)) > 1e-14 * np.max(np.abs(want)):
                        bad.append((k, i))
        except Exception as e:  # reported through bad, not lost in the thread
            bad.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert bad == []
