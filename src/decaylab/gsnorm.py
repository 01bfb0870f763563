"""Weighted norms combining polynomial and sub-exponential factors.

A norm is indexed by (m1, m2, rho1, rho2, s, theta) and realized by the
weight operator applied rightmost-first to a state u:

    W u = <x>^m2 <D>^m1 exp(rho2 <x>^(1/s)) exp(rho1 <D>^(1/theta)) u

followed by the discrete L2 norm.  <.> is the plain bracket sqrt(1 + |.|^2);
frequency factors act as DFT multipliers.  The spatial factors left of the
last frequency factor and the sum of squares stay in the log domain, so a
norm past the double range is reported, never silently clipped.
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
    is value == inf: whether the norm itself left the double range.  A
    weight past the range does not set it on its own, so a zero state reads
    norm 0 without overflow at any weight.
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


def _pigr_scaled(u: StateVector, idx: GsIndices) -> tuple[np.ndarray, float, np.ndarray]:
    """Apply the factors rightmost-first, up to the last frequency factor.

    Returns (values, log_scale, logw): W u = values *
    exp(log_scale + logw), logw the log of the spatial factors left of the
    last frequency factor.  Each exp factor applied to the values is divided
    by its maximum, whose log moves into log_scale.
    """
    g = u.grid
    bx = _space_bracket(g)
    log_rho2 = idx.rho2 * bx ** (1.0 / idx.s)
    logw = idx.m2 * np.log(bx)
    work, tops = u.values, []
    if idx.rho1 != 0.0:
        logf = idx.rho1 * _freq_bracket(g) ** (1.0 / idx.theta)
        tops.append(float(logf.max()))
        # u itself, not a fresh wrap: index sets on one state share its spectrum
        work = apply_multiplier(u, np.exp(logf - tops[-1])).values
    if idx.m1 == 0.0:
        logw = logw + log_rho2
    else:
        tops.append(float(log_rho2.max()))
        work = work * np.exp(log_rho2 - tops[-1])
        work = apply_multiplier(StateVector(g, work), _freq_bracket(g) ** idx.m1).values
    return work, sum(tops, 0.0), logw


def pigr_apply(u: StateVector, idx: GsIndices) -> StateVector:
    """Apply the weight operator W to a spatial state.

    With all indices zero this is the identity.  Entries whose weighted
    value leaves the double range round to inf (zeros stay zero); use
    gs_norm_ex for an extended-range norm.
    """
    if u.space != "x":
        raise ValueError("pigr_apply expects a spatial state")
    vals, log_scale, logw = _pigr_scaled(u, idx)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.where(vals == 0.0, 0.0, vals * np.exp(log_scale + logw))
    return StateVector(u.grid, vals)


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp(a); -inf terms are zeros, and a NaN or +inf term decides."""
    a = a[a != -np.inf]
    if a.size == 0:
        return -np.inf
    top = float(a.max())
    if not np.isfinite(top):
        return top
    return top + float(np.log(np.sum(np.exp(a - top))))


def gs_norm_ex(u: StateVector, idx: GsIndices) -> NormResult:
    """Extended-range weighted norm of a spatial state.  A NaN entry makes
    it NaN, as does an inf entry through a frequency factor (its DFT is
    undefined); an inf entry otherwise makes it inf, with overflow set."""
    if u.space != "x":
        raise ValueError("gs_norm_ex expects a spatial state")
    g = u.grid
    vals, log_scale, logw = _pigr_scaled(u, idx)
    mag = np.abs(vals)
    logmag = np.full(mag.shape, -np.inf)
    np.log(mag, out=logmag, where=mag != 0.0)  # NaN and inf pass through
    logterms = 2.0 * (logw + logmag)
    log_value = log_scale + 0.5 * (_logsumexp(logterms.ravel()) + g.dim * np.log(g.dx))
    value = np.inf if log_value > _DOUBLE_MAX_LOG else float(np.exp(log_value))
    return NormResult(value=value, log_value=float(log_value), overflow=value == np.inf)


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
