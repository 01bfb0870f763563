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

    def a1(t, x):
        # i alpha, alpha the x-derivative of the growing part of phi
        x = np.asarray(x, dtype=np.float64)
        return 1j * ((t - t0) * (1.0 - sigma) * x * _bracket_pow(x, -sigma - 1.0))

    def b(t, x):
        # the same terms as phi_t, phi_x, phi_xx and alpha, from one power
        # per part: <x>^(p+2) = (1+x^2) <x>^p and <x>^(p-2) = <x>^p / (1+x^2)
        x = np.asarray(x, dtype=np.float64)
        x2 = x * x
        r2 = 1.0 + x2
        grow = _bracket_pow(x, -sigma - 1.0)
        c = (t - t0) * (1.0 - sigma) * grow * (1.0 + (-sigma - 1.0) * x2 / r2)
        if eps != 0.0:
            # without a decay part phi_x = alpha, and c is phi_xx alone
            al = (t - t0) * (1.0 - sigma) * x * grow
            decay = _bracket_pow(x, q - 2.0)
            px = al + eps * q * x * decay
            c = c + eps * q * decay * (1.0 + (q - 2.0) * x2 / r2) + px * px - al * px
        return -r2 * grow + 1j * c

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


def hypothesis_check(ep: ExactProblem, *, L: float = 20.0, t_samples=(0.0, 0.25, 0.5), theta: float = 2.0) -> dict:
    """Validate the coefficient growth hypotheses on a sample box.

    Fits the constants in |d^beta Im a| <= C^(|beta|+1) (beta!)^theta
    <x>^(-sigma-|beta|) and the same for Re b and Im b at base order
    1 - sigma, for |beta| <= 2 at 257 points, and asserts Re a vanishes
    identically."""
    sigma = ep.problem.sigma
    x = np.linspace(-L, L, 257)
    re_a_max = 0.0
    fits: dict[str, dict] = {}

    def run(name: str, fn, order: float) -> None:
        cmax = 0.0
        per: dict[str, float] = {}
        for t in t_samples:
            res = gevrey_bound_check(
                lambda ft, fx, _t=float(t): np.asarray(fn(_t, fx[:, 0]), dtype=np.float64),
                np.full(x.size, float(t)),
                x,
                theta=theta,
                order=order,
            )
            cmax = max(cmax, res["C"])
            for k, v in res["per_beta"].items():
                per[k] = max(per.get(k, 0.0), v)
        fits[name] = {"C": cmax, "per_beta": per, "order": order}

    run("a_im", lambda t, x_: np.imag(ep.problem.a[0](t, x_)), -sigma)
    run("b_re", lambda t, x_: np.real(ep.problem.b(t, x_)), 1.0 - sigma)
    run("b_im", lambda t, x_: np.imag(ep.problem.b(t, x_)), 1.0 - sigma)
    for t in t_samples:
        re_a_max = max(re_a_max, float(np.max(np.abs(np.real(ep.problem.a[0](float(t), x))))))

    c_max = max(f["C"] for f in fits.values())
    return {
        "fits": fits,
        "re_a_max": re_a_max,
        "re_a_zero": re_a_max == 0.0,
        "C_max": c_max,
        "pass": bool(np.isfinite(c_max) and re_a_max == 0.0),
    }
