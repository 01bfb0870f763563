"""Closed-form evolutions u = e^phi with engineered decay behavior.

Every example is one member of a single family with the real phase

    phi(t, x) = (t - t0) <x>^(1-sigma) + eps <x>^(1/s).

The first-order coefficient is purely imaginary, a = i alpha, with alpha
the x-derivative of the growing part (t - t0) <x>^(1-sigma), and the
zero-order coefficient comes wholesale from the residual identity

    phi_t - i (phi_xx + phi_x^2) + a phi_x + b = 0
    =>  b = -phi_t + i (phi_xx + phi_x^2 - alpha phi_x),

so the residual vanishes identically by construction rather than by a
transcribed formula.  The members:

    member           eps  t0  s               behaviour
    example1          -1   0  < 1/(1-sigma)   decaying data loses a fixed
                                              part of its decay
    example2           0   1  = 1/(1-sigma)   borderline index; the state
                                              flattens to exactly 1 at t = 1
    example3          +1   0  <= 1/(1-sigma)  growing data, kept for the
                                              converse range of indices
    sharpness upper   -1   0  > 1/(1-sigma)   decaying data above the
                                              threshold (cli sharpness)

All members are one-dimensional with f = 0; problem.s0 is their index s.

With tau = t - t0 both coefficients are affine in tau over parts that
depend on x alone.  With p = 1 - sigma, q = 1/s and E = eps q x <x>^(q-2),

    a = i tau A,                 A  = p x <x>^(-sigma-1)
    b = B0 + i (tau C1 + C0),    B0 = -<x>^p
                                 C1 = phi_xx of <x>^p + A E
                                 C0 = phi_xx of eps <x>^q + E^2,

since phi_x = tau A + E gives phi_x^2 - alpha phi_x = tau A E + E^2.  Each
family keeps one slot: the node array it last sampled on, held so that no
other array can take its id, and the parts built on it.  A call on the
same array object, as every step of a run makes on grid.x_mesh, costs at
most two vector operations.  A call on a new array replaces the slot and builds
only what it needs: A for a, every part for b.  Each call returns a new
array.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cauchy import Problem
from .symbol import gevrey_bound_check

__all__ = [
    "ExactProblem",
    "example1",
    "example2",
    "example3",
    "residual_check",
    "hypothesis_check",
]


@dataclass(frozen=True)
class ExactProblem:
    """A Problem bundled with its exact solution and phase derivatives.

    rho2_data is the decay rate of the initial state in the scale
    e^(rho2 <x>^(1/problem.s0)): +1 means membership at rho2 = 1,
    -1 means membership only for rho2 < -1 (growing data).
    """

    problem: Problem
    label: str
    phi: Callable
    phi_t: Callable
    phi_x: Callable
    phi_xx: Callable
    rho2_data: float

    def u_exact(self, t: float, x) -> np.ndarray:
        return np.exp(np.asarray(self.phi(t, x), dtype=np.complex128))


def _bracket_pow(x: np.ndarray, p: float) -> np.ndarray:
    return (1.0 + x * x) ** (0.5 * p)


def _family(sigma: float, s: float, eps: float, T: float, label: str, rho2_data: float, *, t0: float = 0.0) -> ExactProblem:
    """Phase (t-t0)<x>^(1-sigma) + eps <x>^(1/s) and its induced coefficients."""
    q = 1.0 / s

    def phi(t, x):
        x = np.asarray(x, dtype=np.float64)
        return (t - t0) * _bracket_pow(x, 1.0 - sigma) + eps * _bracket_pow(x, q)

    def phi_t(t, x):
        x = np.asarray(x, dtype=np.float64)
        return _bracket_pow(x, 1.0 - sigma)

    def phi_x(t, x):
        x = np.asarray(x, dtype=np.float64)
        # d/dx <x>^p = p x <x>^(p-2)
        return (t - t0) * (1.0 - sigma) * x * _bracket_pow(x, -sigma - 1.0) + eps * q * x * _bracket_pow(x, q - 2.0)

    def phi_xx(t, x):
        x = np.asarray(x, dtype=np.float64)
        # d2/dx2 <x>^p = p <x>^(p-2) + p (p-2) x^2 <x>^(p-4)
        grow = (t - t0) * (1.0 - sigma) * (
            _bracket_pow(x, -sigma - 1.0) + (-sigma - 1.0) * x * x * _bracket_pow(x, -sigma - 3.0)
        )
        decay = eps * q * (_bracket_pow(x, q - 2.0) + (q - 2.0) * x * x * _bracket_pow(x, q - 4.0))
        return grow + decay

    # the per-grid parts of a and b (module docstring): one slot holds the
    # node array last sampled on, so that no other array can take its id,
    # and the parts built on it so far
    slot = [(None, {})]

    def parts(x: np.ndarray) -> dict:
        key, got = slot[0]
        if key is not x:
            # a new dict, never a cleared one: a library caller's thread still
            # holding the old one keeps the parts of its own array
            got = {}
            slot[0] = (x, got)
        return got

    def a1(t, x):
        # a = i tau A with A = (1-sigma) xg; a miss builds xg alone
        x = np.asarray(x, dtype=np.float64)
        got = parts(x)
        xg = got.get("a")
        if xg is None:
            xg = got["a"] = x * (1.0 + x * x) ** (-0.5 * (sigma + 1.0))
        return xg * (1j * (t - t0) * (1.0 - sigma))

    def b(t, x):
        # b = i tau C1 - nb0 with nb0 = -B0 - i C0
        x = np.asarray(x, dtype=np.float64)
        got = parts(x)
        if "b" not in got:
            # one power per part: x^2 <x>^(p-2) = w <x>^p, w = x^2 / (1+x^2)
            x2 = x * x
            r2 = 1.0 + x2
            w = x2 / r2
            grow = r2 ** (-0.5 * (sigma + 1.0))
            nb0 = r2 * grow
            c1 = 1.0 + (-sigma - 1.0) * w
            if eps != 0.0:
                ed = (eps * q) * r2 ** (0.5 * (q - 2.0))
                e = x * ed
                c1 += x * e
                c0 = ed * (1.0 + (q - 2.0) * w)
                c0 += e * e
                nb0 = nb0 - 1j * c0
            c1 *= (1.0 - sigma) * grow
            got["b"] = (c1, nb0)
        c1, nb0 = got["b"]
        out = c1 * (1j * (t - t0))
        out -= nb0
        return out

    def g(x):
        return np.exp(phi(0.0, x)).astype(np.complex128)

    prob = Problem(dim=1, sigma=sigma, s0=s, a=(a1,), b=b, f=None, g=g, T=T)
    return ExactProblem(
        problem=prob, label=label, phi=phi, phi_t=phi_t, phi_x=phi_x, phi_xx=phi_xx, rho2_data=rho2_data
    )


def example1(sigma: float, s: float, *, T: float = 0.5) -> ExactProblem:
    """Decaying data e^(-<x>^(1/s)) in the admissible range s < 1/(1-sigma):
    the state keeps sub-exponential decay but loses a fixed amount of it."""
    if not (0.0 < sigma < 1.0):
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    if not (s > 1.0):
        raise ValueError(f"s must be > 1, got {s}")
    if not (s < 1.0 / (1.0 - sigma)):
        raise ValueError(f"example1 needs s < 1/(1-sigma) = {1.0 / (1.0 - sigma)}, got {s}")
    return _family(sigma, s, -1.0, T, "example1", rho2_data=1.0)


def example2(sigma: float, *, T: float = 1.0) -> ExactProblem:
    """Borderline index s = 1/(1-sigma): phase (t-1)<x>^(1-sigma).

    The state starts at e^(-<x>^(1-sigma)) and flattens to exactly 1 at
    t = 1, so the decay loss equals the elapsed time."""
    if not (0.0 < sigma < 1.0):
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    if not (0.0 < T <= 1.0):
        raise ValueError(f"T must lie in (0, 1], got {T}")
    return _family(sigma, 1.0 / (1.0 - sigma), 0.0, T, "example2", rho2_data=1.0, t0=1.0)


def example3(sigma: float, s: float, *, T: float = 0.5) -> ExactProblem:
    """Growing data e^(+<x>^(1/s)) for s <= 1/(1-sigma): class membership
    only at negative decay rates, with the exact log-growth identity
    log|u(t)| - log|u(0)| = t <x>^(1-sigma)."""
    if not (0.0 < sigma < 1.0):
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    if not (s > 1.0):
        raise ValueError(f"s must be > 1, got {s}")
    if not (s <= 1.0 / (1.0 - sigma) * (1.0 + 1e-12)):
        raise ValueError(f"example3 needs s <= 1/(1-sigma) = {1.0 / (1.0 - sigma)}, got {s}")
    return _family(sigma, s, +1.0, T, "example3", rho2_data=-1.0)


def residual_check(ep: ExactProblem, grid, t_samples) -> dict:
    """Maximum of |phi_t - i(phi_xx + phi_x^2) + a phi_x + b| over the grid
    nodes and the sampled times.

    The coefficients come from ep.problem, so any perturbation of them
    shows up here at its own magnitude; the stored phase derivatives give
    the exact remaining terms."""
    if grid.dim != 1:
        raise ValueError("the closed-form families are one-dimensional")
    x = grid.x
    per_t = []
    worst = 0.0
    for t in t_samples:
        t = float(t)
        px = np.asarray(ep.phi_x(t, x), dtype=np.complex128)
        pxx = np.asarray(ep.phi_xx(t, x), dtype=np.complex128)
        pt = np.asarray(ep.phi_t(t, x), dtype=np.complex128)
        aco = np.asarray(ep.problem.a[0](t, x), dtype=np.complex128)
        bco = np.asarray(ep.problem.b(t, x), dtype=np.complex128)
        r = pt - 1j * (pxx + px * px) + aco * px + bco
        m = float(np.max(np.abs(r)))
        per_t.append({"t": t, "max_residual": m})
        worst = max(worst, m)
    return {"max_residual": worst, "per_t": per_t, "nodes": grid.n}


def hypothesis_check(ep: ExactProblem, *, L: float = 20.0, t_samples=(0.0, 0.25, 0.5)) -> dict:
    """Validate the coefficient growth hypotheses on a sample box.

    Fits the constants in |d^beta Im a| <= C^(|beta|+1) (beta!)^2
    <x>^(-sigma-|beta|) and the same for Re b and Im b at base order
    1 - sigma, for |beta| <= 2 at 257 points and over the sampled times,
    and asserts Re a vanishes identically."""
    sigma = ep.problem.sigma
    re_a = []

    def samples(nodes):
        # every t on one node array before the next: the family builds its
        # parts once per array
        a = np.array([ep.problem.a[0](float(t), nodes) for t in t_samples])
        b = np.array([ep.problem.b(float(t), nodes) for t in t_samples])
        re_a.append(float(np.max(np.abs(np.real(a)))))
        return [np.imag(a), np.real(b), np.imag(b)]

    orders = (-sigma, 1.0 - sigma, 1.0 - sigma)
    got = gevrey_bound_check(samples, np.linspace(-L, L, 257), orders)
    fits = {name: {**fit, "order": order} for name, fit, order in zip(("a_im", "b_re", "b_im"), got, orders)}
    # np.max, not max: a NaN anywhere must reach the result and fail it
    re_a_max = float(np.max(re_a))
    c_max = float(np.max([f["C"] for f in fits.values()]))
    return {
        "fits": fits,
        "re_a_max": re_a_max,
        "re_a_zero": re_a_max == 0.0,
        "C_max": c_max,
        "pass": bool(np.isfinite(c_max) and re_a_max == 0.0),
    }
