"""Weighted norms combining polynomial and sub-exponential factors.

A norm is indexed by (m1, m2, rho1, rho2, s, theta) and realized by the
weight operator applied rightmost-first to a state u:

    W u = <x>^m2 <D>^m1 exp(rho2 <x>^(1/s)) exp(rho1 <D>^(1/theta)) u

followed by the discrete L2 norm.  <.> is the plain bracket sqrt(1 + |.|^2);
frequency factors act as DFT multipliers.  Weights that leave the double
range are handled in the log domain and reported, never silently clipped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Grid, StateVector, apply_multiplier

__all__ = [
    "GsIndices",
    "NormResult",
    "SweepRow",
    "pigr_apply",
    "gs_norm_ex",
    "norm_box_sweep",
]

# exponents beyond this are factored out before exponentiation
_LOG_GUARD = 600.0
_DOUBLE_MAX_LOG = float(np.log(np.finfo(np.float64).max))


@dataclass(frozen=True)
class GsIndices:
    """Norm indices: polynomial orders m1 (frequency), m2 (space) and
    sub-exponential rates rho1 (frequency, scale 1/theta), rho2 (space,
    scale 1/s).  s > 1 and theta > 1 are required at construction."""

    m1: float = 0.0
    m2: float = 0.0
    rho1: float = 0.0
    rho2: float = 0.0
    s: float = 2.0
    theta: float = 2.0

    def __post_init__(self) -> None:
        if not (self.s > 1.0):
            raise ValueError(f"s must be > 1, got {self.s}")
        if not (self.theta > 1.0):
            raise ValueError(f"theta must be > 1, got {self.theta}")

    def label(self) -> str:
        vals = (self.m1, self.m2, self.rho1, self.rho2, self.s, self.theta)
        return "H_" + "_".join("%g" % v for v in vals)


@dataclass(frozen=True)
class NormResult:
    """Extended-range norm value.

    value is exp(log_value) when representable, inf otherwise; overflow
    records whether any weight or the value itself left the double range.
    """

    value: float
    log_value: float
    overflow: bool


@dataclass(frozen=True)
class SweepRow:
    L: float
    norm: float
    log_norm: float
    overflow: bool


def _space_bracket(grid: Grid) -> np.ndarray:
    return np.sqrt(1.0 + grid.x_norm**2)


def _freq_bracket(grid: Grid) -> np.ndarray:
    return np.sqrt(1.0 + grid.xi_norm**2)


def _pigr_scaled(u: StateVector, idx: GsIndices) -> tuple[np.ndarray, float, bool]:
    """Apply the four weight factors rightmost-first.

    Returns (values, log_scale, overflow): the true result is
    values * exp(log_scale).  A factor whose log-weight would overflow is
    rescaled by its maximum, which moves into log_scale.
    """
    g = u.grid
    work = u.values
    log_scale = 0.0
    overflow = False

    if idx.rho1 != 0.0:
        logw = idx.rho1 * _freq_bracket(g) ** (1.0 / idx.theta)
        top = float(logw.max())
        shift = top if top > _LOG_GUARD else 0.0
        if top > _DOUBLE_MAX_LOG:
            overflow = True
        work = apply_multiplier(StateVector(g, work), np.exp(logw - shift)).values
        log_scale += shift

    logw = idx.rho2 * _space_bracket(g) ** (1.0 / idx.s)
    top = float(logw.max())
    shift = top if top > _LOG_GUARD else 0.0
    if top > _DOUBLE_MAX_LOG:
        overflow = True
    work = work * np.exp(logw - shift)
    log_scale += shift

    if idx.m1 != 0.0:
        work = apply_multiplier(StateVector(g, work), _freq_bracket(g) ** idx.m1).values

    if idx.m2 != 0.0:
        work = work * _space_bracket(g) ** idx.m2

    return work, log_scale, overflow


def pigr_apply(u: StateVector, idx: GsIndices) -> StateVector:
    """Apply the weight operator W to a spatial state.

    With all indices zero this is the identity.  If a weight overflows the
    double range the computation is carried out in rescaled form and the
    overflowing scale is re-applied at the end (entries may round to inf);
    use gs_norm_ex for a fully extended-range norm.
    """
    if u.space != "x":
        raise ValueError("pigr_apply expects a spatial state")
    vals, log_scale, _ = _pigr_scaled(u, idx)
    if log_scale != 0.0:
        scale = np.exp(log_scale)  # inf when past the double range
        vals = np.where(vals == 0.0, 0.0, vals * scale)
    return StateVector(u.grid, vals)


def _logsumexp(a: np.ndarray) -> float:
    a = a[np.isfinite(a) | (a == np.inf)]
    if a.size == 0:
        return -np.inf
    top = float(a.max())
    if top == -np.inf:
        return -np.inf
    return top + float(np.log(np.sum(np.exp(a - top))))


def gs_norm_ex(u: StateVector, idx: GsIndices) -> NormResult:
    """Extended-range weighted norm of a spatial state."""
    if u.space != "x":
        raise ValueError("gs_norm_ex expects a spatial state")
    g = u.grid

    if idx.m1 == 0.0 and idx.rho1 == 0.0:
        # pointwise path: exact in the log domain, no transforms
        bx = _space_bracket(g)
        logw = idx.m2 * np.log(bx) + idx.rho2 * bx ** (1.0 / idx.s)
        mag = np.abs(u.values)
        logmag = np.full(mag.shape, -np.inf)
        np.log(mag, out=logmag, where=mag > 0)
        overflow = bool(np.max(logw + np.where(mag > 0, logmag, 0.0)) > _DOUBLE_MAX_LOG)
        logterms = 2.0 * (logw + logmag)
        log_sq = _logsumexp(logterms.ravel()) + g.dim * np.log(g.dx)
        log_value = 0.5 * log_sq
        value = float(np.exp(log_value)) if log_value <= _DOUBLE_MAX_LOG else np.inf
        overflow = overflow or not np.isfinite(value) and log_value > 0
        return NormResult(value=value, log_value=float(log_value), overflow=bool(overflow))

    vals, log_scale, overflow = _pigr_scaled(u, idx)
    l2 = float(np.sqrt(np.sum(np.abs(vals) ** 2)) * g.dx ** (g.dim / 2.0))
    if l2 == 0.0:
        return NormResult(0.0, -np.inf, overflow)
    log_value = log_scale + np.log(l2)
    value = float(np.exp(log_value)) if log_value <= _DOUBLE_MAX_LOG else np.inf
    if not np.isfinite(value):
        overflow = True
    return NormResult(value=value, log_value=float(log_value), overflow=bool(overflow))


def norm_box_sweep(states: Sequence[StateVector], idx: GsIndices) -> list[SweepRow]:
    """Norms of one function sampled on boxes of increasing L at fixed dx.

    All states must share the node spacing; box sizes must increase.
    Truncated norms of a fixed function are nondecreasing in L, which makes
    the rows directly comparable.
    """
    if len(states) < 2:
        raise ValueError("norm_box_sweep needs at least two box sizes")
    g0 = states[0].grid
    rows: list[SweepRow] = []
    last_L = -np.inf
    for st in states:
        if not g0.same_layout(st.grid):
            raise ValueError(
                f"inconsistent node spacing in sweep: dx={st.grid.dx} vs {g0.dx}"
            )
        if not (st.grid.L > last_L):
            raise ValueError("box sizes must be strictly increasing")
        last_L = st.grid.L
        r = gs_norm_ex(st, idx)
        rows.append(SweepRow(L=st.grid.L, norm=r.value, log_norm=r.log_value, overflow=r.overflow))
    return rows
