"""Dense quantized operators on small tensor grids.

Two quantizations of a phase-space function share one discrete frame.  With
W[j, k] = exp(i x_j . xi_k), V[k, m] = exp(-i x_m . xi_k) dx^d and the cell
factor c = (dxi / 2 pi)^d:

    direct  (symbol left of the phase):   KN(a)  = c (a * W) @ V
    reverse (symbol right of the phase):  REV(b) = c W @ (b^T * V)

so that KN(a)^H = REV(conj(a)) holds as a finite-dimensional identity, not
just asymptotically.  Matrices are kept dense on purpose: every operator
statement in this package is checked against explicit linear algebra, so
sizes are capped instead of optimized.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, StateVector, forward_dft, inverse_dft

__all__ = [
    "DenseOp",
    "WeightPair",
    "kn_apply",
    "rev_apply",
    "assemble_dense",
    "adjoint",
    "inverse",
    "power_iteration_norm",
    "conjugation_remainder_check",
    "hermitian_min_eig",
]

_MAX_NODES_1D = 4096
_MAX_AXIS_2D = 64


def _check_size(grid: Grid) -> None:
    if grid.dim == 1 and grid.n > _MAX_NODES_1D:
        raise ValueError(f"dense operators cap n at {_MAX_NODES_1D} in one dimension, got {grid.n}")
    if grid.dim == 2 and grid.n > _MAX_AXIS_2D:
        raise ValueError(f"dense operators cap n at {_MAX_AXIS_2D} per axis in two dimensions, got {grid.n}")


@dataclass(frozen=True)
class DenseOp:
    """A dense matrix acting on flattened spatial states, with a tag
    recording how it was built: kn, reverse, multiplier, pointwise, or
    composite."""

    grid: Grid
    matrix: np.ndarray
    tag: str

    def __post_init__(self) -> None:
        _check_size(self.grid)
        m = np.asarray(self.matrix, dtype=np.complex128)
        n = self.grid.node_count
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} grid nodes")
        object.__setattr__(self, "matrix", m)

    def apply(self, u: StateVector) -> StateVector:
        if u.space != "x":
            raise ValueError("DenseOp acts on spatial states")
        if not self.grid.same_layout(u.grid):
            raise ValueError("state lives on a different grid")
        out = self.matrix @ u.values.ravel()
        return StateVector(u.grid, out.reshape(u.grid.shape))


def _flat_coords(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    if grid.dim == 1:
        return grid.x[:, None], grid.xi[:, None]
    x = np.stack([a.ravel() for a in grid.x_mesh], axis=-1)
    xi = np.stack([a.ravel() for a in grid.xi_mesh], axis=-1)
    return x, xi


def _sym_flat(grid: Grid, sym: np.ndarray) -> np.ndarray:
    n = grid.node_count
    sym = np.asarray(sym)
    if sym.shape == grid.shape + grid.shape:
        return sym.reshape(n, n)
    raise ValueError(f"symbol must have shape {grid.shape + grid.shape}, got {sym.shape}")


def kn_apply(u: StateVector, sym: np.ndarray, *, chunk: int = 256) -> StateVector:
    """Apply the direct quantization of a phase-space symbol.

    sym has shape grid.shape + grid.shape (spatial indices first).  The
    result at x_j is c sum_k sym[j, k] e^(i x_j . xi_k) uhat[k]."""
    g = u.grid
    _check_size(g)
    s = _sym_flat(g, sym)
    uh = forward_dft(u).values.ravel()
    xf, xif = _flat_coords(g)
    scale = (g.dxi / (2.0 * np.pi)) ** g.dim
    n = g.node_count
    out = np.empty(n, dtype=np.complex128)
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        phase = np.exp(1j * (xf[a:b] @ xif.T))
        out[a:b] = (s[a:b] * phase) @ uh
    return StateVector(g, (out * scale).reshape(g.shape))


def rev_apply(u: StateVector, sym: np.ndarray, *, chunk: int = 256) -> StateVector:
    """Apply the reverse quantization (symbol evaluated at the input node)."""
    g = u.grid
    _check_size(g)
    s = _sym_flat(g, sym)
    xf, xif = _flat_coords(g)
    uw = u.values.ravel() * g.dx**g.dim
    n = g.node_count
    tmp = np.empty(n, dtype=np.complex128)
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        ph = np.exp(-1j * (xf @ xif[a:b].T))
        tmp[a:b] = (s[:, a:b] * ph).T @ uw
    return inverse_dft(StateVector(g, tmp.reshape(g.shape), space="xi"))


def assemble_dense(grid: Grid, kind: str, sym: np.ndarray) -> DenseOp:
    """Materialize a quantized operator as a dense matrix.

    kind: "kn" or "reverse" with a full phase-space symbol, "multiplier"
    with frequency values on grid.shape, "pointwise" with spatial values
    on grid.shape."""
    _check_size(grid)
    n = grid.node_count
    if kind == "pointwise":
        vals = np.asarray(sym)
        if vals.shape != grid.shape:
            raise ValueError(f"pointwise symbol must have shape {grid.shape}")
        return DenseOp(grid, np.diag(vals.ravel().astype(np.complex128)), "pointwise")

    xf, xif = _flat_coords(grid)
    scale = (grid.dxi / (2.0 * np.pi)) ** grid.dim
    W = np.exp(1j * (xf @ xif.T))
    V = np.exp(-1j * (xif @ xf.T)) * grid.dx**grid.dim
    if kind == "multiplier":
        vals = np.asarray(sym)
        if vals.shape != grid.shape:
            raise ValueError(f"multiplier symbol must have shape {grid.shape}")
        mat = (W * vals.ravel()[None, :]) @ V * scale
        return DenseOp(grid, mat, "multiplier")
    s = _sym_flat(grid, sym)
    if kind == "kn":
        mat = (s * W) @ V * scale
        return DenseOp(grid, mat, "kn")
    if kind == "reverse":
        mat = W @ (s.T * V) * scale
        return DenseOp(grid, mat, "reverse")
    raise ValueError(f"unknown kind {kind!r}")


def adjoint(a: DenseOp) -> DenseOp:
    return DenseOp(a.grid, a.matrix.conj().T, "composite")


def inverse(a: DenseOp, *, cond_cap: float = 1e12) -> DenseOp:
    c = float(np.linalg.cond(a.matrix))
    if not (c < cond_cap):
        raise ValueError(f"condition number {c:.3e} exceeds cap {cond_cap:.1e}")
    inv = np.linalg.solve(a.matrix, np.eye(a.matrix.shape[0], dtype=np.complex128))
    return DenseOp(a.grid, inv, "composite")


def power_iteration_norm(mat: np.ndarray, *, iters: int = 20, tol: float = 1e-6, seed: int = 0) -> float:
    """Spectral norm estimate by power iteration on mat^H mat."""
    rng = np.random.default_rng(seed)
    n = mat.shape[0]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    sig = 0.0
    for _ in range(iters):
        w = mat @ v
        new = float(np.linalg.norm(w))
        if new == 0.0:
            return 0.0
        z = mat.conj().T @ w
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            return new
        v = z / nz
        if sig > 0.0 and abs(new - sig) <= tol * sig:
            return new
        sig = new
    return sig


class WeightPair:
    """The two quantizations of the phase weight: E0 = KN(e^lam), kept,
    and R0 = REV(e^-lam), built only to measure the remainder E0 R0 - I.

    While that remainder has norm below one, R0 is an approximate inverse
    of E0 and conjugating by E0 is well posed.  field is lam on
    grid.shape + grid.shape, as lambda_on_grid returns it.
    """

    def __init__(self, grid: Grid, field: np.ndarray):
        self.grid = grid
        self.field = field
        self.e0 = assemble_dense(grid, "kn", np.exp(field))

    def remainder_norm(self, *, seed: int = 0) -> float:
        """Power-iteration estimate of ||E0 R0 - I||; R0 is not kept."""
        r0 = assemble_dense(self.grid, "reverse", np.exp(-self.field))
        r1 = self.e0.matrix @ r0.matrix - np.eye(self.grid.node_count)
        del r0
        return power_iteration_norm(r1, seed=seed)

    def inverse(self, *, cond_cap: float = 1e12) -> DenseOp:
        return inverse(self.e0, cond_cap=cond_cap)


def conjugation_remainder_check(hs, *, n: int, L: float, M: float, s: float, sigma: float, dim: int = 1, critical: bool = False, nnode: int = 24, seed: int = 0) -> dict:
    """Measure how far the two quantizations of the phase weight are from
    being mutually inverse, as the activation threshold h grows.

    For each h, the spectral norm of r1 = KN(e^lam) REV(e^-lam) - I is
    estimated.  Larger h freezes the weight on more of the frequency grid,
    so the norms should decrease; the empirical threshold h0 is the
    smallest h in the sweep with norm < 1.
    """
    from .symbol import LambdaParams, lambda_on_grid

    g = Grid(dim=dim, n=n, L=L)
    _check_size(g)
    rows = []
    h0 = None
    for h in hs:
        params = LambdaParams(M=M, h=float(h), s=s, sigma=sigma, critical=critical)
        nrm = WeightPair(g, lambda_on_grid(g, params, nnode=nnode)).remainder_norm(seed=seed)
        rows.append({"h": float(h), "norm_r1": nrm, "n": n})
        if h0 is None and nrm < 1.0:
            h0 = float(h)
    return {"rows": rows, "h0": h0, "n": n, "L": L, "dim": dim}


def hermitian_min_eig(op: DenseOp, *, max_nodes: int = 2048) -> float:
    """Smallest eigenvalue of the Hermitian part (A + A^H)/2."""
    n = op.grid.node_count
    if n > max_nodes:
        raise ValueError(f"hermitian_min_eig caps nodes at {max_nodes}, got {n}")
    herm = 0.5 * (op.matrix + op.matrix.conj().T)
    return float(np.linalg.eigvalsh(herm)[0])
