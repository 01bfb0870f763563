"""Dense quantized operators on small tensor grids.

Two quantizations of a phase-space function share one discrete frame.  With
W[j, k] = exp(i x_j . xi_k), V[k, m] = exp(-i x_m . xi_k) dx^d and the cell
factor c = (dxi / 2 pi)^d:

    direct  (symbol left of the phase):   KN(a)  = c (a * W) @ V
    reverse (symbol right of the phase):  REV(b) = c W @ (b^T * V)

so that KN(a)^H = REV(conj(a)) holds as a finite-dimensional identity, not
just asymptotically.  assemble_dense materializes these matrices, with
sizes capped, as the explicit reference every operator statement is
checked against.  The phase weight's pair is never assembled: its symbols
differ from 1 only on the open frequency columns, so WeightPair holds E0
and R0 as rank-m updates of the identity and takes the remainder norm,
cond(E0) and E0^-1 exactly from those factors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, _edge_phase

__all__ = [
    "DenseOp",
    "WeightPair",
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
    recording how it was built: kn, reverse, multiplier or composite."""

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


def assemble_dense(grid: Grid, kind: str, sym: np.ndarray) -> DenseOp:
    """Materialize a quantized operator as a dense matrix.

    kind: "kn" or "reverse" with a full phase-space symbol, "multiplier"
    with frequency values on grid.shape.

    A multiplier's sum c (W diag(m) V)[j, l] = n^-d sum_k m_k
    e^(2 pi i k.(j - l)/n) depends only on (j - l) mod n, so its matrix is
    gathered from ifftn(m): circulant in 1-D, block-circulant with
    circulant blocks in 2-D."""
    _check_size(grid)
    n = grid.node_count
    if kind == "multiplier":
        vals = np.asarray(sym)
        if vals.shape != grid.shape:
            raise ValueError(f"multiplier symbol must have shape {grid.shape}")
        col = np.fft.ifftn(vals)
        j = np.arange(grid.n)
        lag = (j[:, None] - j[None, :]) % grid.n
        if grid.dim == 1:
            mat = col[lag]
        else:
            mat = col[lag[:, None, :, None], lag[None, :, None, :]].reshape(n, n)
        return DenseOp(grid, mat, "multiplier")

    xf, xif = _flat_coords(grid)
    scale = (grid.dxi / (2.0 * np.pi)) ** grid.dim
    W = np.exp(1j * (xf @ xif.T))
    V = np.exp(-1j * (xif @ xf.T)) * grid.dx**grid.dim
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
    """a^-1, refused unless cond(a) < cond_cap."""
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


def _dft_columns(grid: Grid, cols: np.ndarray) -> np.ndarray:
    """V @ cols for an (n^d, m) array, forward_dft of every column, formed
    in cols' own storage where it is contiguous: cols may be overwritten."""
    vals = cols.reshape(grid.shape + (-1,))
    np.fft.fftn(vals, axes=tuple(range(grid.dim)), out=vals)
    vals *= (_edge_phase(grid) * grid.dx**grid.dim)[..., None]
    return vals.reshape(cols.shape)


class WeightPair:
    """The two quantizations of the phase weight, E0 = KN(e^lam) and
    R0 = REV(e^-lam), held as factors and never assembled.

    Let S be the m frequency columns on which lam does not vanish (the
    nodes the gate leaves open) and W_S = W[:, S].  Since c W V = I,

        E0 - I = KN(e^lam - 1) = U V_S,   U = c (e^lam - 1)[:, S] * W_S,
        R0 - I = W_S V',                  V' = c (e^-lam - 1)[:, S]^T * V_S,

    with V_S = V[S, :] = dx^d W_S^H.  In the unitary frame W / n^(d/2) the
    columns of W_S are coordinate vectors, so over (S, the rest)

        E0 = [[core, 0], [C, I]],   R0 = [[I + H_S, H_rest], [0, I]],

    with core = I + V_S U, C = V[rest, :] U (the DFT rows of U) and
    H = V' W.  The R factor of A = [U, W_S] in that frame is
    [[core - I, I], [R_C, 0]], R_C that of C, so one R-only QR of C gives
    the remainder norm and cond(E0) exactly from (m + k)-square problems,
    k = min(m, n^d - m).  E0^-1 = I - U core^-1 V_S by Woodbury's identity
    (Hager, SIAM Review 1989).  While ||E0 R0 - I|| < 1, R0 is an
    approximate inverse of E0 and conjugating by E0 is well posed.  field
    is lam on grid.shape + grid.shape, as lambda_on_grid returns it.
    """

    def __init__(self, grid: Grid, field: np.ndarray):
        self.grid = grid
        lam = _sym_flat(grid, field)
        self._open = np.flatnonzero(np.any(lam != 0.0, axis=0))
        m = self._open.size
        self._lam = lam[:, self._open]
        xf, xif = _flat_coords(grid)
        self.u = (xf @ xif[self._open].T) * 1j
        np.exp(self.u, out=self.u)  # W_S until scaled below
        self.v_s = self.u.T.conj()
        self.v_s *= grid.dx**grid.dim
        self.u *= (grid.dxi / (2.0 * np.pi)) ** grid.dim * np.expm1(self._lam)
        f = _dft_columns(grid, self.u.copy())
        r_c = np.linalg.qr(np.delete(f, self._open, axis=0), mode="r")
        f[:m], f[m : m + len(r_c)] = f[self._open], r_c
        self._fc = f[: m + len(r_c)]  # [[core], [R_C]] in f's storage
        self._fc[np.arange(m), np.arange(m)] += 1.0  # core = I + V_S U
        self._z = None

    def remainder_norm(self) -> float:
        """||E0 R0 - I||_2, exact: in the frame E0 R0 - I = A' B with
        A' = [[core - I, I], [C, 0]] and B = [[e_S^T + H], [H]], so its norm
        is that of K = [[core], [R_C]] (e_S^T + H) - [[e_S^T], [0]], the
        square root of the top eigenvalue of K K^H."""
        m = self._open.size
        if m == 0:
            return 0.0
        g = self.grid
        # U_neg = c (e^-lam - 1)[:, S] * W_S, with W_S = V_S^H / dx^d
        p = self.v_s.T.conj()
        p *= (g.dxi / (2.0 * np.pi) / g.dx) ** g.dim * np.expm1(-self._lam)
        p = np.conjugate(_dft_columns(g, p), out=p).T  # H = V' W = (V U_neg)^H
        p[np.arange(m), self._open] += 1.0
        k = self._fc @ p
        del p
        k[np.arange(m), self._open] -= 1.0
        return float(np.sqrt(max(np.linalg.eigvalsh(k @ k.conj().T)[-1], 0.0)))

    def cond(self) -> float:
        """2-norm condition number of E0, exact: that of
        [[core, 0], [R_C, I_k]], and of E0's identity part while 2m < n^d."""
        m, mk = self._open.size, self._fc.shape[0]
        block = np.eye(mk, dtype=np.complex128)
        block[:, :m] = self._fc
        sv = np.linalg.svd(block, compute_uv=False)
        if mk < self.grid.node_count:
            sv = np.append(sv, 1.0)
        return float(sv.max() / sv.min())

    def apply(self, v: np.ndarray) -> np.ndarray:
        """E0 v = v + U (V_S v) for flat v, or for each column of a matrix."""
        return v + self.u @ (self.v_s @ v)

    def _woodbury(self) -> np.ndarray:
        """Z = core^-1 V_S, so that E0^-1 = I - U Z; built on first use."""
        if self._z is None:
            self._z = np.linalg.solve(self._fc[: self._open.size], self.v_s)
        return self._z

    def solve(self, v: np.ndarray) -> np.ndarray:
        """E0^-1 v = v - U (Z v) for flat v, or for each column of a matrix."""
        return v - self.u @ (self._woodbury() @ v)

    def conjugate(self, mat: np.ndarray) -> np.ndarray:
        """E0 mat E0^-1 = X - (X U) Z with X = E0 mat, in O(n^2 m), formed
        in mat's own storage: mat is overwritten and returned."""
        mat += self.u @ (self.v_s @ mat)
        mat -= (mat @ self.u) @ self._woodbury()
        return mat


def conjugation_remainder_check(hs, *, n: int, L: float, M: float, s: float, sigma: float) -> dict:
    """Measure how far the two quantizations of the phase weight are from
    being mutually inverse, as the activation threshold h grows.

    For each h, the exact spectral norm of r1 = KN(e^lam) REV(e^-lam) - I
    on the one-dimensional grid is taken from the weight pair's factors.
    Larger h freezes the weight on more of the frequency grid, so the norms
    should decrease; the empirical threshold h0 is the smallest h in the
    sweep with norm < 1.
    """
    # call-time import: bench/tracing.py patches symbol.lambda_on_grid and pins its calls
    from .symbol import LambdaParams, lambda_on_grid

    g = Grid(dim=1, n=n, L=L)
    _check_size(g)
    rows = []
    h0 = None
    for h in hs:
        params = LambdaParams(M=M, h=float(h), s=s, sigma=sigma)
        nrm = WeightPair(g, lambda_on_grid(g, params)).remainder_norm()
        rows.append({"h": float(h), "norm_r1": nrm, "n": n})
        if h0 is None and nrm < 1.0:
            h0 = float(h)
    return {"rows": rows, "h0": h0, "n": n, "L": L}


def hermitian_min_eig(op: DenseOp, *, max_nodes: int = 2048) -> float:
    """Smallest eigenvalue of the Hermitian part (A + A^H)/2."""
    n = op.grid.node_count
    if n > max_nodes:
        raise ValueError(f"hermitian_min_eig caps nodes at {max_nodes}, got {n}")
    herm = 0.5 * (op.matrix + op.matrix.conj().T)
    return float(np.linalg.eigvalsh(herm)[0])
