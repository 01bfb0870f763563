"""Dense quantized operators on small tensor grids.

Two quantizations of a phase-space function share one discrete frame.  With
W[j, k] = exp(i x_j . xi_k), gathered exactly from the n-th roots of unity,
V = dx^d W^H and the cell factor c = (dxi / 2 pi)^d:

    direct  (symbol left of the phase):   KN(a)  = c (a * W) @ V
    reverse (symbol right of the phase):  REV(b) = c W @ (b^T * V)

so that KN(a)^H = REV(conj(a)) holds as a finite-dimensional identity, not
just asymptotically.  assemble_dense materializes these matrices, with
sizes capped, as the explicit reference every operator statement is
checked against.  A frequency multiplier's matrix depends only on node
differences, so _circulant_view holds it as a strided view of O(n^d)
entries; the plain route's generator is built on those views.  The phase
weight's pair is never assembled: its symbols differ from 1 only on the
open frequency columns, so WeightPair takes the field as (open nodes,
columns), as lambda_on_grid builds it, holds E0 and R0 as rank-m updates
of the identity and takes the remainder norm, cond(E0) and E0^-1 exactly
from those factors, in blocks: conjugate's temporaries are narrow, the
remainder norm's K is never whole, and V_S and the m x m core^-1 are built
only when E0 or E0^-1 is applied.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symbol
from .grid import Grid, _edge_phase, _node_rows

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

_MAX_NODES = 4096
_EIG_MAX_NODES = 2048  # hermitian_min_eig's cap

# rows or columns per slab of the dense products that would otherwise make a
# square temporary: WeightPair.conjugate's two passes, remainder_norm's K
# terms and Gram strips (which form only the lower triangle eigvalsh reads)
# and the plain route's dense generator.  Each temporary has _BLOCK rows or
# columns (n = 512 splits in four).
_BLOCK = 128


def _check_size(grid: Grid) -> None:
    # n is a power of two, so this is n <= 4096 in 1-D and n <= 64 in 2-D
    if grid.node_count > _MAX_NODES:
        raise ValueError(f"dense operators cap the grid at {_MAX_NODES} nodes, got {grid.node_count}")


def _check_eig_size(grid: Grid) -> None:
    # hermitian_min_eig's node cap; a run that will take a min-eig checks it
    # before any work
    if grid.node_count > _EIG_MAX_NODES:
        raise ValueError(f"hermitian_min_eig caps nodes at {_EIG_MAX_NODES}, got {grid.node_count}")


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


def _phase_columns(grid: Grid, cols) -> np.ndarray:
    """W[:, cols] for a slice or index array of frequency nodes.  Per axis
    x_j xi_k = -pi k + 2 pi j k / n, so W[j, k] = (-1)^(sum k)
    e^(2 pi i (j . k mod n) / n) is gathered from one table of the n-th
    roots of unity, with no exponential of an argument that grows with
    the box."""
    j = _node_rows(grid)
    roots = np.exp(2j * np.pi / grid.n * np.arange(grid.n))
    idx = j @ grid.k_int[j[cols]].T
    idx &= grid.n - 1  # the mod n, in place: n is a power of two
    w = roots[idx]
    w *= _edge_phase(grid).ravel()[cols]
    return w


def _circulant_view(grid: Grid, col: np.ndarray) -> np.ndarray:
    """The matrix M[j, l] = col[(j - l) mod n], per axis, of an ifftn column
    col on grid.shape, as a read-only view of shape grid.shape + grid.shape
    into 2^d n^d entries, never n^2d.  The doubled reversal
    r[k] = col[-k mod n], 0 <= k < 2n per axis, holds M[j, l] at
    r[n - j + l], so the view steps back along r for the row index and
    forward for the column index: each row's innermost run is contiguous."""
    n, d = grid.n, grid.dim
    idx = -np.arange(2 * n) % n
    r = col[np.ix_(*(idx,) * d)]
    strides = tuple(-st for st in r.strides) + r.strides
    return np.lib.stride_tricks.as_strided(r[(slice(n, None),) * d], grid.shape * 2, strides, writeable=False)


def assemble_dense(grid: Grid, kind: str, sym: np.ndarray) -> DenseOp:
    """Materialize a quantized operator as a dense matrix.

    kind: "kn" or "reverse" with a full phase-space symbol, "multiplier"
    with frequency values on grid.shape.

    A multiplier's sum c (W diag(m) V)[j, l] = n^-d sum_k m_k
    e^(2 pi i k.(j - l)/n) depends only on (j - l) mod n, so its matrix is
    ifftn(m) laid out by _circulant_view: circulant in 1-D, block-circulant
    with circulant blocks in 2-D."""
    _check_size(grid)
    n = grid.node_count
    if kind == "multiplier":
        vals = np.asarray(sym)
        if vals.shape != grid.shape:
            raise ValueError(f"multiplier symbol must have shape {grid.shape}")
        mat = np.ascontiguousarray(_circulant_view(grid, np.fft.ifftn(vals))).reshape(n, n)
        return DenseOp(grid, mat, "multiplier")

    s = np.asarray(sym)
    if s.shape != grid.shape + grid.shape:
        raise ValueError(f"symbol must have shape {grid.shape + grid.shape}, got {s.shape}")
    s = s.reshape(n, n)
    scale = (grid.dxi / (2.0 * np.pi)) ** grid.dim
    W = _phase_columns(grid, slice(None))
    V = W.conj().T * grid.dx**grid.dim
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

    Let S be the m frequency nodes the gate leaves open (lam vanishes on
    every other column) and W_S = W[:, S].  Since c W V = I,

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
    (Hager, SIAM Review 1989), and cond(core) <= cond(E0), since core is
    E0's leading block and core^-1 that of E0^-1: the inverse of core is
    as safe as E0's conditioning cap.  While ||E0 R0 - I|| < 1, R0 is an
    approximate inverse of E0 and conjugating by E0 is well posed.  field
    is (S, lam[:, S]), flat indices, as lambda_on_grid returns it.

    The pair holds U and [[core], [R_C]] from construction.  V_S (m x n^d)
    and core^-1 (m x m) are built on first use, so a pair used only for
    its remainder norm and cond(E0) holds neither.
    """

    def __init__(self, grid: Grid, field: tuple[np.ndarray, np.ndarray]):
        self.grid = grid
        self._open, self._lam = field
        m = self._open.size
        self.u = _phase_columns(grid, self._open)  # W_S until scaled below
        e = np.expm1(self._lam)
        e *= (grid.dxi / (2.0 * np.pi)) ** grid.dim
        self.u *= e
        del e
        f = _dft_columns(grid, self.u.copy())
        core, closed = f[self._open], np.delete(f, self._open, axis=0)
        del f  # before the QR copies the closed rows
        r_c = np.linalg.qr(closed, mode="r")
        del closed
        self._fc = np.concatenate((core, r_c))  # [[core], [R_C]], (m + k) x m of its own
        self._fc[np.arange(m), np.arange(m)] += 1.0  # core = I + V_S U
        self._v_s = None
        self._core_inv = None

    @property
    def v_s(self) -> np.ndarray:
        """V_S = dx^d W_S^H, m x n^d (the transpose of a C-ordered array),
        built on first use."""
        if self._v_s is None:
            w = _phase_columns(self.grid, self._open)
            np.conjugate(w, out=w)
            w *= self.grid.dx**self.grid.dim
            self._v_s = w.T
        return self._v_s

    @property
    def core_inv(self) -> np.ndarray:
        """core^-1, m x m, built on first use."""
        if self._core_inv is None:
            self._core_inv = np.linalg.inv(self._fc[: self._open.size])
        return self._core_inv

    def remainder_norm(self) -> float:
        """||E0 R0 - I||_2, exact: in the frame E0 R0 - I = A' B with
        A' = [[core - I, I], [C, 0]] and B = [[e_S^T + H], [H]], so its norm
        is that of K = [[core], [R_C]] (e_S^T + H) - [[e_S^T], [0]], the
        square root of the top eigenvalue of K K^H.  K, (m + k) x n^d, is
        formed _BLOCK columns at a time and never whole."""
        m = self._open.size
        if m == 0:
            return 0.0
        g = self.grid
        # U_neg = c (e^-lam - 1)[:, S] * W_S; p is C-ordered, so
        # _dft_columns transforms it in place
        p = _phase_columns(g, self._open)
        p *= g.dx**g.dim
        e = np.negative(self._lam)
        np.expm1(e, out=e)
        e *= (g.dxi / (2.0 * np.pi) / g.dx) ** g.dim
        p *= e
        del e
        p = np.conjugate(_dft_columns(g, p), out=p).T  # H = V' W = (V U_neg)^H
        rows = np.arange(m)
        p[rows, self._open] += 1.0
        mk = self._fc.shape[0]
        gram = np.zeros((mk, mk), dtype=np.complex128)
        for lo in range(0, p.shape[1], _BLOCK):
            k = self._fc @ p[:, lo : lo + _BLOCK]
            hit = (self._open >= lo) & (self._open < lo + _BLOCK)
            k[rows[hit], self._open[hit] - lo] -= 1.0
            for c in range(0, mk, _BLOCK):
                gram[c:, c : c + _BLOCK] += k[c:] @ k[c : c + _BLOCK].conj().T
            del k  # before the next block's k is formed
        del p
        return float(np.sqrt(max(np.linalg.eigvalsh(gram, UPLO="L")[-1], 0.0)))

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

    def solve(self, v: np.ndarray) -> np.ndarray:
        """E0^-1 v = v - U (core^-1 (V_S v)) for flat v, or for each column
        of a matrix."""
        return v - self.u @ (self.core_inv @ (self.v_s @ v))

    def conjugate(self, mat: np.ndarray) -> np.ndarray:
        """E0 mat E0^-1 = X - ((X U) core^-1) V_S with X = E0 mat, in
        O(n^2 m), formed in mat's own storage: mat is overwritten and
        returned.  X is formed _BLOCK columns at a time, then the second
        term _BLOCK rows at a time, so each temporary is n^d x _BLOCK; each
        entry is the one the whole products give."""
        for lo in range(0, mat.shape[1], _BLOCK):
            blk = mat[:, lo : lo + _BLOCK]
            blk += self.u @ (self.v_s @ blk)
        for lo in range(0, mat.shape[0], _BLOCK):
            blk = mat[lo : lo + _BLOCK]
            blk -= ((blk @ self.u) @ self.core_inv) @ self.v_s
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
    g = Grid(dim=1, n=n, L=L)
    _check_size(g)
    rows = []
    h0 = None
    for h in hs:
        params = symbol.LambdaParams(M=M, h=float(h), s=s, sigma=sigma)
        nrm = WeightPair(g, symbol.lambda_on_grid(g, params)).remainder_norm()
        rows.append({"h": float(h), "norm_r1": nrm, "n": n})
        if h0 is None and nrm < 1.0:
            h0 = float(h)
    return {"rows": rows, "h0": h0, "n": n, "L": L}


def hermitian_min_eig(op: DenseOp) -> float:
    """Smallest eigenvalue of the Hermitian part (A + A^H)/2, formed in one
    conjugate copy of A; A itself is left as it is."""
    _check_eig_size(op.grid)
    herm = op.matrix.conj().T
    herm += op.matrix
    herm *= 0.5
    return float(np.linalg.eigvalsh(herm)[0])
