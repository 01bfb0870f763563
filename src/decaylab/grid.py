"""Uniform periodic grids and discrete Fourier transforms.

The transform pair used throughout the package carries the physical
normalization

    uhat(xi_k) = sum_j u(x_j) exp(-i x_j xi_k) dx^d
    u(x_j)     = (2*pi)^(-d) sum_k uhat(xi_k) exp(i x_j xi_k) dxi^d

on the box [-L, L)^d with n nodes per axis, dx = 2L/n and frequency nodes
xi_k = (pi/L) k for k in {-n/2, ..., n/2 - 1}, stored in DFT order.  Since
dxi * dx = 2*pi/n the pair is exactly inverse on the grid.  The boundary
phase exp(i L xi_k) = (-1)^k is applied as exact integer signs, so repeated
runs are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "StateVector",
    "forward_dft",
    "inverse_dft",
    "apply_multiplier",
    "spectral_derivative",
    "laplacian",
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Immutable uniform periodic grid on [-L, L)^dim.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    n : int
        Nodes per axis, a power of two, at least 8.
    L : float
        Half box size.
    """

    dim: int
    n: int
    L: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not isinstance(self.n, int) or not _is_pow2(self.n) or self.n < 8:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (self.L > 0):
            raise ValueError(f"L must be positive, got {self.L}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def dxi(self) -> float:
        return np.pi / self.L

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def node_count(self) -> int:
        return self.n**self.dim

    @cached_property
    def x(self) -> np.ndarray:
        """Per-axis spatial nodes -L + j*dx, j = 0..n-1."""
        return -self.L + self.dx * np.arange(self.n)

    @cached_property
    def k_int(self) -> np.ndarray:
        """Integer DFT frequencies [0, 1, ..., n/2-1, -n/2, ..., -1]."""
        return np.rint(np.fft.fftfreq(self.n, d=1.0 / self.n)).astype(np.int64)

    @cached_property
    def xi(self) -> np.ndarray:
        """Per-axis frequency nodes (pi/L)*k in DFT order."""
        return self.dxi * self.k_int

    @cached_property
    def edge_signs(self) -> np.ndarray:
        """Exact boundary phases exp(i L xi_k) = (-1)^k as +-1.0 floats."""
        return np.where(self.k_int & 1, -1.0, 1.0)

    @cached_property
    def x_mesh(self) -> tuple[np.ndarray, ...]:
        if self.dim == 1:
            return (self.x,)
        return tuple(np.meshgrid(self.x, self.x, indexing="ij"))

    @cached_property
    def xi_mesh(self) -> tuple[np.ndarray, ...]:
        if self.dim == 1:
            return (self.xi,)
        return tuple(np.meshgrid(self.xi, self.xi, indexing="ij"))

    @cached_property
    def x_norm(self) -> np.ndarray:
        """|x| at every node, shaped like the grid."""
        if self.dim == 1:
            return np.abs(self.x)
        x1, x2 = self.x_mesh
        return np.hypot(x1, x2)

    @cached_property
    def xi_norm(self) -> np.ndarray:
        """|xi| at every frequency node, shaped like the grid."""
        if self.dim == 1:
            return np.abs(self.xi)
        k1, k2 = self.xi_mesh
        return np.hypot(k1, k2)

    @cached_property
    def nyquist_mask(self) -> tuple[np.ndarray, ...]:
        """Per-axis boolean arrays, True at the unpaired k = -n/2 mode."""
        return tuple(
            mesh_k == -(self.n // 2)
            for mesh_k in (
                (self.k_int,)
                if self.dim == 1
                else tuple(np.meshgrid(self.k_int, self.k_int, indexing="ij"))
            )
        )

    def same_layout(self, other: "Grid") -> bool:
        """True when node spacings and dimension agree (boxes may differ)."""
        return self.dim == other.dim and abs(self.dx - other.dx) <= 1e-12 * self.dx


@dataclass(frozen=True)
class StateVector:
    """Complex node values bound to a grid.

    ``space`` is "x" for spatial samples and "xi" for frequency samples.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    space: str = "x"

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if self.space not in ("x", "xi"):
            raise ValueError(f"space must be 'x' or 'xi', got {self.space!r}")
        object.__setattr__(self, "values", vals)

    def l2_norm(self) -> float:
        """Discrete L2 norm, sqrt(sum |u|^2 dx^d), for spatial states."""
        if self.space != "x":
            raise ValueError("l2_norm is defined on spatial states")
        return float(
            np.sqrt(np.sum(np.abs(self.values) ** 2)) * self.grid.dx ** (self.grid.dim / 2.0)
        )


def sample(grid: Grid, f: Callable[..., np.ndarray]) -> StateVector:
    """Sample f(x) or f(x1, x2) on the grid into a spatial state."""
    vals = np.asarray(f(*grid.x_mesh), dtype=np.complex128)
    return StateVector(grid, np.broadcast_to(vals, grid.shape).copy())


def _edge_phase(grid: Grid) -> np.ndarray:
    s = grid.edge_signs
    if grid.dim == 1:
        return s
    return s[:, None] * s[None, :]


def forward_dft(u: StateVector) -> StateVector:
    """Transform a spatial state to its frequency samples.

    For u identically 1 on the n=8, L=4 grid the zero mode is 8 = 2L and all
    other modes vanish.
    """
    if u.space != "x":
        raise ValueError("forward_dft expects a spatial state")
    g = u.grid
    vals = np.fft.fftn(u.values) * _edge_phase(g) * g.dx**g.dim
    return StateVector(g, vals, space="xi")


def inverse_dft(uhat: StateVector) -> StateVector:
    """Invert forward_dft; the pair round-trips to machine precision."""
    if uhat.space != "xi":
        raise ValueError("inverse_dft expects a frequency state")
    g = uhat.grid
    vals = np.fft.ifftn(uhat.values * _edge_phase(g)) / g.dx**g.dim
    return StateVector(g, vals, space="x")


def apply_multiplier(u: StateVector, m: np.ndarray) -> StateVector:
    """Apply a frequency multiplier m(xi) to a spatial state.

    The boundary phases cancel between the two transforms, so this is the
    plain FFT sandwich; m must be shaped like the grid in DFT order.
    """
    if u.space != "x":
        raise ValueError("apply_multiplier expects a spatial state")
    vals = np.fft.ifftn(np.asarray(m) * np.fft.fftn(u.values))
    return StateVector(u.grid, vals)


def _derivative_multiplier(grid: Grid, axis: int) -> np.ndarray:
    if not (0 <= axis < grid.dim):
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    xi_ax = grid.xi_mesh[axis]
    m = 1j * xi_ax
    # the unpaired -n/2 mode breaks skew-adjointness of odd multipliers
    m = np.where(grid.nyquist_mask[axis], 0.0, m)
    return m


def spectral_derivative(u: StateVector, axis: int = 0) -> StateVector:
    """Differentiate along one axis via the i*xi multiplier.

    The Nyquist mode is zeroed so the operator stays exactly skew-adjoint;
    grid exponentials exp(i xi_k x) with |k| < n/2 are exact eigenfunctions.
    """
    return apply_multiplier(u, _derivative_multiplier(u.grid, axis))


def laplacian(u: StateVector) -> StateVector:
    """Apply the -|xi|^2 multiplier (even, so the Nyquist mode is kept)."""
    g = u.grid
    m = -(g.xi_norm**2)
    return apply_multiplier(u, m)
