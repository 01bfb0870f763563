"""Phase-space weight used to conjugate the evolution.

The weight exponent is Lambda(t, x, xi) = k(t) <x>_h^(1-sigma) + lam(x, xi).
Its time part is a decreasing schedule k(t) solving k' + N k + N (M+1) = 0.
Its phase part lam is built from an odd accumulated-decay profile along the
frequency direction omega = xi/|xi|:

    F(y, r2) = sign(y) * M * int_0^|y| (1 + r2 + z^2)^((1/s - 1)/2) dz

with y = x . omega and r2 = |x|^2 - y^2, blended by direction and frequency
cutoffs so that lam vanishes identically for |xi| <= h and is odd in xi.
The field and the transport check share one rule for F: in
u = asinh(z / sqrt(1 + r2)), tables per s and u-panel of width 0.75 (the
integral up to the panel and a 16-term Chebyshev sum across it, both built
by 12-node Gauss-Legendre), within 1.1e-15 relative of 30-digit mpmath for
s in {1.05, 1.1, 1.8, 2, 3, 5}, |y| <= 1e6 and r2 <= 3200.
The key payoff is the transport identity: wherever the direction cutoff sits
on its plateau, sum_j (d lam / d x_j) xi_j = -M <x>^(1/s - 1) |xi| exactly,
and elsewhere the same quantity is still bounded above by that value.

lam depends on xi only through the gate of |xi| and the direction omega,
and is odd under omega -> -omega.  _primitive_directions reduces the integer
frequency nodes to direction classes (primitive lattice vectors modulo
sign), and both lattice computations run once per class: lambda_on_grid
evaluates the blend once per class and scales it by gate and sign at each
of the class's nodes, building only the gate's open columns; and the
transport check, whose quantity divided by |xi| depends on omega alone,
covers every frequency node with |xi| >= 2h by checking each class once,
on one node of each pair x, -x (that slope is even in x), half the lattice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import Grid, _node_rows

__all__ = [
    "LambdaParams",
    "ConjugationSchedule",
    "lambda_sym",
    "lambda_on_grid",
    "c_of_lambda",
    "transport_sign_check",
    "gevrey_bound_check",
]


@dataclass(frozen=True)
class LambdaParams:
    """Shape parameters of the phase weight.

    M scales the accumulated-decay profile, h >= 1 sets both the frequency
    activation threshold and the bracket scale of the time part, s > 1 is
    the spatial decay index and sigma in (0, 1) the coefficient-growth
    index.  The admissible range is s < 1/(1 - sigma).
    Cutoffs are built from exp(-1/t) glue, so every piece has the same
    sub-analytic smoothness as the profile itself.
    """

    M: float
    h: float
    s: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.M > 0):
            raise ValueError(f"M must be > 0, got {self.M}")
        if not (self.h >= 1.0):
            raise ValueError(f"h must be >= 1, got {self.h}")
        if not (self.s > 1.0):
            raise ValueError(f"s must be > 1, got {self.s}")
        if not (0.0 < self.sigma < 1.0):
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")
        limit = 1.0 / (1.0 - self.sigma)
        if not (self.s < limit):
            raise ValueError(f"s must satisfy s < 1/(1-sigma) = {limit}, got {self.s}")


@dataclass(frozen=True)
class ConjugationSchedule:
    """Time schedule k(t) = e^(-N t) (k0 + M + 1) - (M + 1) on [0, T].

    Solves k' + N k + N (M + 1) = 0 with k(0) = k0.  Requiring
    k0 >= (M + 1) (e^(N T) - 1) keeps k >= 0 on the whole interval; the
    constructor enforces it.  k is strictly decreasing.
    """

    k0: float
    Nconst: float
    T: float
    M: float

    def __post_init__(self) -> None:
        if not (self.Nconst > 0):
            raise ValueError(f"Nconst must be > 0, got {self.Nconst}")
        if not (self.T > 0):
            raise ValueError(f"T must be > 0, got {self.T}")
        if not (self.M > 0):
            raise ValueError(f"M must be > 0, got {self.M}")
        bound = (self.M + 1.0) * np.expm1(self.Nconst * self.T)
        if not (self.k0 >= bound * (1.0 - 1e-12)):
            raise ValueError(
                f"k0 must be >= (M+1)(e^(N T)-1) = {bound} to keep k(t) >= 0, got {self.k0}"
            )

    def _check_t(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < -1e-12) or np.any(t > self.T + 1e-12):
            raise ValueError(f"t must lie in [0, {self.T}]")
        return t

    def k(self, t):
        t = self._check_t(t)
        out = np.exp(-self.Nconst * t) * (self.k0 + self.M + 1.0) - (self.M + 1.0)
        return float(out) if out.ndim == 0 else out

    def kprime(self, t):
        t = self._check_t(t)
        out = -self.Nconst * np.exp(-self.Nconst * t) * (self.k0 + self.M + 1.0)
        return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# cutoffs


def _cutoff(r, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    # even cutoff chi(r) and its slope d chi/dr: chi is exactly 1 for
    # |r| <= lo and exactly 0 for |r| >= hi or NaN; with
    # t = (hi - |r|)/(hi - lo), chi = up/(up + down), up = exp(-1/t),
    # down = exp(-1/(1-t)), formed on the band 0 < t < 1 only
    r = np.asarray(r, dtype=np.float64)
    t = (hi - np.abs(r)) / (hi - lo)
    # np.array, not astype: a 0-d r must give a writable 0-d chi
    chi = np.array(t >= 1.0, dtype=np.float64)
    slope = np.zeros_like(chi)
    band = (t > 0.0) & (t < 1.0)
    tb = t[band]
    up = np.exp(-1.0 / tb)
    down = np.exp(-1.0 / (1.0 - tb))
    den = up + down
    chi[band] = up / den
    slope[band] = (-1.0 / (hi - lo)) * np.sign(r[band]) * up * down * (1.0 / tb**2 + 1.0 / (1.0 - tb) ** 2) / den**2
    return chi, slope


def _freq_gate(xi_norm, h: float) -> np.ndarray:
    # 1 - cutoff: exactly 0 for |xi| <= h, exactly 1 for |xi| >= 2h
    return 1.0 - _cutoff(np.asarray(xi_norm) / h, 1.0, 2.0)[0]


# ---------------------------------------------------------------------------
# accumulated-decay profile


# width, Chebyshev terms and Gauss-Legendre nodes of _profile_integral's
# u-panels: the integrand's singularities sit at Im u = +-pi/2 whatever y
# and rho_sq are
_PROFILE_WIDTH = 0.75
_PROFILE_NCOEF = 16
_PROFILE_NNODE = 12


def _panel_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    # count equal panels of _PROFILE_NNODE Gauss-Legendre nodes on [0, 1],
    # panel by panel, as columns: the node positions and weights
    t, w = leggauss(_PROFILE_NNODE)
    frac = ((np.arange(count)[:, None] + 0.5 * (t + 1.0)) / count).reshape(-1, 1)
    return frac, np.tile(w, count)[:, None]


@lru_cache(maxsize=4096)
def _panel_table(s: float, k: int) -> tuple[float, np.ndarray]:
    """(C_k, q) for the u-panel [k W, (k + 1) W], W = _PROFILE_WIDTH:
    C_k = int_0^(k W) cosh(u)^(1/s) du over k panels of the rule, and q,
    read-only, the Chebyshev coefficients on x = 2 v / W - 1 of
    Q_k(v) = (1/v) int_(k W)^(k W + v) cosh(u)^(1/s) du, v in [0, W],
    interpolated at 2 _PROFILE_NCOEF first-kind points and truncated.
    Q_k(v) is the mean of the integrand over [k W, k W + v], one panel of
    the rule for each v, so it keeps its relative accuracy as v -> 0."""
    width, cum = _PROFILE_WIDTH, 0.0
    if k:
        frac, wts = _panel_rule(k)
        cum = 0.5 * width * float(np.sum(wts * np.cosh(frac * (k * width)) ** (1.0 / s)))
    npts = 2 * _PROFILE_NCOEF
    frac, wts = _panel_rule(1)
    v = 0.5 * width * (np.cos(np.pi * (np.arange(npts) + 0.5) / npts) + 1.0)
    vals = 0.5 * np.sum(wts * np.cosh(k * width + frac * v) ** (1.0 / s), axis=0)
    # cos(j theta_i) with its argument reduced exactly: j (2 i + 1) mod 4 npts
    arg = np.arange(_PROFILE_NCOEF)[:, None] * (2 * np.arange(npts) + 1) % (4 * npts)
    q = (2.0 / npts) * (np.cos(np.pi / (2 * npts) * arg) @ vals)
    q[0] *= 0.5
    q.flags.writeable = False
    return cum, q


def _clenshaw(q: np.ndarray, x2: np.ndarray, b1: np.ndarray, b2: np.ndarray, t: np.ndarray) -> np.ndarray:
    # sum_j q[j] T_j(x) at x = x2 / 2 by Clenshaw's recurrence, in the
    # scratch b1, b2 and t (x2's shape, overwritten): elementwise with scalar
    # coefficients, so each value depends only on its own point
    np.multiply(x2, q[-1], out=b1)
    b1 += q[-2]
    b2.fill(q[-1])
    for qj in q[-3:0:-1]:
        np.multiply(x2, b1, out=t)
        t -= b2
        t += qj
        b1, b2, t = t, b1, b2
    np.multiply(x2, b1, out=t)
    t *= 0.5
    t -= b2
    t += q[0]
    return t


# points per block of _profile_integral's Clenshaw sums: five scratch
# arrays of 128 KiB, so the scratch does not grow with the batch
_PROFILE_BLOCK = 1 << 14


def _profile_integral(y, rho_sq, s: float) -> np.ndarray:
    """F(y, rho_sq) = sign(y) int_0^|y| (1 + rho_sq + z^2)^p dz, p = (1/s - 1)/2.

    y and rho_sq broadcast to y's shape, which the result has.  With
    c = 1 + rho_sq and z = sqrt(c) sinh u, F = sign(y) c^(1/(2s)) times
    int_0^U cosh(u)^(1/s) du, U = asinh(|y|/sqrt(c)).  U falls in the
    u-panel k = floor(U / W), and the integral is C_k + v Q_k(v), v = U - k W,
    from _panel_table's cumulative integral and Chebyshev sum: within
    1.1e-15 relative of 30-digit mpmath for s in {1.05, 1.1, 1.8, 2, 3, 5},
    |y| <= 1e6 and rho_sq <= 3200.  Points are grouped by panel and summed in
    blocks with scalar coefficients, so a value depends only on its own
    point: it is bitwise the same in any batch.
    """
    y = np.asarray(y, dtype=np.float64)
    c = 1.0 + np.broadcast_to(np.asarray(rho_sq, dtype=np.float64), y.shape).ravel()
    upper = np.arcsinh(np.abs(y).ravel() / np.sqrt(c))
    panel = (upper / _PROFILE_WIDTH).astype(np.intp)
    out = np.empty_like(upper)
    size = min(_PROFILE_BLOCK, upper.size)
    v, x2, b1, b2, t = np.empty((5, size))
    for k in np.flatnonzero(np.bincount(panel)):
        group = np.flatnonzero(panel == k)
        cum, q = _panel_table(s, int(k))
        for lo in range(0, group.size, size):
            sel = group[lo : lo + size]
            m = sel.size
            vs = np.take(upper, sel, out=v[:m])
            vs -= k * _PROFILE_WIDTH
            np.multiply(vs, 4.0 / _PROFILE_WIDTH, out=x2[:m])
            x2[:m] -= 2.0
            vs *= _clenshaw(q, x2[:m], b1[:m], b2[:m], t[:m])
            vs += cum
            out[sel] = vs
    out *= c ** (0.5 / s)
    return (np.sign(y).ravel() * out).reshape(y.shape)


def _geometry(x, xi):
    # y = x . omega, rho_sq = |x|^2 - y^2 >= 0, both per point
    xin = np.sqrt(np.sum(xi * xi, axis=-1))
    if np.any(xin == 0.0):
        raise ValueError("xi must be nonzero to define a direction")
    omega = xi / xin[..., None]
    y = np.sum(x * omega, axis=-1)
    rho_sq = np.maximum(np.sum(x * x, axis=-1) - y * y, 0.0)
    return y, rho_sq, xin


def _blend(y, rho_sq, bx, params: LambdaParams) -> np.ndarray:
    """-(lambda1 * chi + lambda2 * (1 - chi)) given the direction geometry;
    lambda2 = M F(y, 0) is the profile with the transverse offset dropped,
    needed only where chi < 1: on the plateau both profiles are sign(y)
    times a nonnegative integral, so adding lambda2 * 0 changes no bit.
    Where rho_sq = 0, F(y, 0) is lambda1's own integral, bit for bit, since
    each point's value depends on that point alone, so only points off the
    line are integrated again: a 1-D field takes one integral."""
    prof = _profile_integral(y, rho_sq, params.s)
    mix = params.M * prof
    ct = _cutoff(y / bx, 0.5, 1.0)[0]
    mix *= ct
    off = ct < 1.0
    lam2 = prof[off]
    tilt = rho_sq[off] != 0.0
    if np.any(tilt):
        lam2[tilt] = _profile_integral(y[off][tilt], 0.0, params.s)
    mix[off] += params.M * lam2 * (1.0 - ct[off])
    return -mix


def _blend_slope(y, rho_sq, bx, params: LambdaParams) -> np.ndarray:
    """Exact derivative of _blend along omega.

    Along omega, y advances at unit rate and rho_sq is invariant, so
    d lambda1 = M (1 + rho_sq + y^2)^p (fundamental theorem of calculus),
    d lambda2 = M (1 + y^2)^p and d chi = chi'(y/<x>) (1 + rho_sq)/<x>^3,
    with p = (1/s - 1)/2.  The gap lambda1 - lambda2 is M times
    F(y, rho_sq) - F(y, 0), the two profiles _blend forms, taken where chi'
    and rho_sq are nonzero (at rho_sq = 0 both are the same bits); it is
    within 2.0e-15 of |F(y, 0)|, the scale at which its terms cancel, of
    30-digit mpmath over _profile_integral's ranges.  chi and chi' come
    from one pair of exponentials (_cutoff).
    """
    p = 0.5 * (1.0 / params.s - 1.0)
    ct, dchi = _cutoff(y / bx, 0.5, 1.0)
    out = params.M * (1.0 + rho_sq + y * y) ** p
    out *= ct
    # dlam2 (1 - chi) and the chi' term add exact zeros where chi = 1 and
    # chi' = 0 (the plateau), so they are formed on the other points only
    off = np.flatnonzero((ct < 1.0) | (dchi != 0.0))
    y_off = y[off]
    out[off] += params.M * (1.0 + y_off * y_off) ** p * (1.0 - ct[off])
    rho_off = rho_sq[off]
    dct = dchi[off] * (1.0 + rho_off) / bx[off] ** 3
    keep = (dct != 0.0) & (rho_off != 0.0)
    if np.any(keep):
        yb = y_off[keep]
        gap = _profile_integral(yb, rho_off[keep], params.s) - _profile_integral(yb, 0.0, params.s)
        out[off[keep]] += params.M * gap * dct[keep]
    return np.negative(out, out=out)


def lambda_sym(x, xi, params: LambdaParams) -> np.ndarray:
    """Full phase part: frequency gate times the direction blend.

    x and xi are coordinate rows of shape (..., d), broadcast against each
    other; a 1-D slice passes columns such as xs[:, None].  The result has
    the broadcast shape without the last axis.  Exactly zero for |xi| <= h,
    odd in xi, nonpositive where x . xi > 0, and bounded by a multiple of
    M <x>^(1/s) uniformly in xi.
    """
    x, xi = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(xi, dtype=np.float64))
    xin = np.sqrt(np.sum(xi * xi, axis=-1))
    out = np.zeros(x.shape[:-1], dtype=np.float64)
    gate = np.asarray(_freq_gate(xin, params.h))
    act = gate > 0.0
    if np.any(act):
        xa = x[act]
        xia = xi[act]
        y, rho_sq, _ = _geometry(xa, xia)
        bx = np.sqrt(1.0 + np.sum(xa * xa, axis=-1))
        out[act] = gate[act] * _blend(y, rho_sq, bx, params)
    return out


def _primitive_directions(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direction classes of nonzero integer frequency nodes k, shape (m, d),
    reduced modulo scaling and antipodal symmetry.

    Returns the class unit vectors, in lexicographic order of their
    primitive lattice vectors, the class of each node and its +-1 sign:
    k_i / |k_i| = sign_i * dirs[cls_i].  Each primitive vector is keyed
    as one integer, its row-major index in the box its offsets span, so
    a running count of the occupied keys numbers the classes in that order.
    """
    prim = np.array(k.T, order="C")  # one contiguous row per axis
    prim //= reduce(np.gcd, np.abs(prim))
    # canonical antipodal representative: first nonzero component positive
    flip = (prim[0] < 0) | ((prim[0] == 0) & (prim[-1] < 0))
    prim *= np.where(flip, -1, 1)
    # initial=0 keeps the box defined for an empty k (a closed gate)
    lo = np.array([[r.min(initial=0)] for r in prim])
    shape = tuple(r.max(initial=0) + 1 - l for r, (l,) in zip(prim, lo))
    key = np.ravel_multi_index(prim - lo, shape)
    occupied = np.zeros(math.prod(shape), dtype=np.intp)
    occupied[key] = 1
    cols = np.array(np.unravel_index(np.flatnonzero(occupied), shape)) + lo
    dirs = np.ascontiguousarray((cols / np.sqrt(np.sum(cols * cols, axis=0))).T)
    return dirs, np.cumsum(occupied, out=occupied)[key] - 1, np.where(flip, -1.0, 1.0)


def lambda_on_grid(grid: Grid, params: LambdaParams) -> tuple[np.ndarray, np.ndarray]:
    """The phase part on the tensor grid as (open, cols): open, ascending,
    holds the flat frequency indices where the gate is positive, and cols,
    of shape (grid.node_count, open.size), lam on those columns; lam is 0 on
    every other one.  The blend is evaluated once per direction class of the
    open nodes, over all x, and each node of the class gets that column
    times its gate and antipodal sign.
    """
    j = _node_rows(grid)
    xpts, k = grid.x[j], grid.k_int[j]
    xi = grid.dxi * k
    gate = _freq_gate(np.sqrt(np.sum(xi * xi, axis=-1)), params.h)
    act = np.nonzero(gate > 0.0)[0]
    dirs, cls, sign = _primitive_directions(k[act])
    scale = gate[act] * sign
    xnorm2 = np.sum(xpts * xpts, axis=-1)
    bx = np.sqrt(1.0 + xnorm2)
    cols = np.empty((xpts.shape[0], act.size), dtype=np.float64)
    for c, w in enumerate(dirs):
        y = xpts @ w
        rho_sq = np.maximum(xnorm2 - y * y, 0.0)
        # each member column is written in place: no (n^d, members) block
        blend = _blend(y, rho_sq, bx, params)
        for i in np.nonzero(cls == c)[0]:
            np.multiply(blend, scale[i], out=cols[:, i])
    return act, cols


def c_of_lambda(params: LambdaParams, L: float, n: int) -> float:
    """Grid estimate of the smallest c with |lambda_sym| <= c <x>^(1/s) in
    one dimension: the maximum of |lambda_sym| / <x>^(1/s) over the n x n
    phase grid on [-L, L).

    |lambda| = gate(|xi|) |blend(x)| factorizes over the product lattice,
    since the blend is odd in xi, so the maximum is computed per factor."""
    g = Grid(dim=1, n=n, L=L)
    bx = np.sqrt(1.0 + g.x * g.x)
    vals = np.abs(_blend(g.x, np.zeros_like(g.x), bx, params))
    return float(_freq_gate(np.abs(g.xi), params.h).max() * (vals / bx ** (1.0 / params.s)).max())


# ---------------------------------------------------------------------------
# transport check


def _reflection_orbits(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of x -> -x on the nodes as (rep, mult): each orbit's lower flat
    index, ascending, and its size, 1 or 2.  Index j > 0 mirrors n - j on an
    axis where x_(n-j) = -x_j bit for bit; a node pairs if every axis does."""
    mirror = -np.arange(grid.n) % grid.n
    exact = (mirror != 0) & (grid.x[mirror] == -grid.x)
    flat = np.arange(grid.node_count)
    pair = reduce(lambda a, b: np.add.outer(a * grid.n, b), (mirror,) * grid.dim).ravel()
    pair = np.where(reduce(np.logical_and.outer, (exact,) * grid.dim).ravel(), pair, flat)
    rep = np.flatnonzero(flat <= pair)
    return rep, np.where(pair[rep] == rep, 1, 2)


def transport_sign_check(grid: Grid, params: LambdaParams, *, direction_cap: int = 4096, seed: int = 0) -> dict:
    """Sign check of the transport quantity sum_j (d lam/d x_j) xi_j.

    For |xi| >= 2h the quantity divided by |xi| must not exceed
    -M <x>^(1/s - 1), with equality on the direction-cutoff plateau.  It
    depends on xi only through the direction class, so one check per
    primitive lattice direction covers every frequency node exactly.
    The directional derivative is the closed form of _blend_slope; a point
    violates the bound when it exceeds it by more than 4 ulp of the rate,
    the roundoff of the plateau identity.  Only the transition band takes
    an integral, the profile gap, within 2.0e-15 of |F(y, 0)| of mpmath's.
    The slope is even under x -> -x (chi and (1 + y^2)^p are even in y,
    chi' and the gap odd), so a direction runs on one node per reflection
    orbit, counting a violation per node; points_checked counts every node.
    """
    if direction_cap < 1:
        raise ValueError(f"direction_cap must be at least 1, got {direction_cap}")
    j = _node_rows(grid)
    k = grid.k_int[j]
    xin = np.sqrt(np.sum(k * k, axis=-1)) * grid.dxi
    k = k[xin >= 2.0 * params.h]
    if k.size == 0:
        raise ValueError(f"no frequency node has |xi| >= 2h = {2.0 * params.h}; the largest |xi| is {xin.max()}")
    dirs, _, _ = _primitive_directions(k)
    total_dirs = dirs.shape[0]
    capped = total_dirs > direction_cap
    if capped:
        rng = np.random.default_rng(seed)
        dirs = dirs[rng.choice(total_dirs, size=direction_cap, replace=False)]

    rep, mult = _reflection_orbits(grid)
    xpts = grid.x[j[rep]]
    xnorm2 = np.sum(xpts * xpts, axis=-1)
    bx = np.sqrt(1.0 + xnorm2)
    rate_ref = params.M * (1.0 + xnorm2) ** (0.5 * (1.0 / params.s - 1.0))
    floor = 4.0 * np.finfo(np.float64).eps * rate_ref

    violations = 0
    worst_margin = np.inf
    rate_floor = np.inf
    worst: list[dict] = []
    plateau_dev = 0.0

    for w in dirs:
        y = xpts @ w
        rho_sq = np.maximum(xnorm2 - y * y, 0.0)
        der = _blend_slope(y, rho_sq, bx, params)
        # requirement: der + rate_ref <= 0
        excess = der + rate_ref
        violations += int(mult[excess > floor].sum())
        m = float(np.min(-excess))
        if m < worst_margin:
            worst_margin = m
            i = int(np.argmin(-excess))
            worst.append({"x": xpts[i].tolist(), "omega": w.tolist(), "margin": m})
        rate_floor = min(rate_floor, float(np.min(-der / rate_ref)) * params.M)
        on_plateau = np.abs(y) <= 0.45 * bx
        if np.any(on_plateau):
            plateau_dev = max(plateau_dev, float(np.max(np.abs(excess[on_plateau]))))

    worst.sort(key=lambda r: r["margin"])
    return {
        "pass": violations == 0,
        "violations": violations,
        "points_checked": int(grid.node_count * dirs.shape[0]),
        "directions_total": int(total_dirs),
        "directions_checked": int(dirs.shape[0]),
        "capped": bool(capped),
        "worst_margin": worst_margin,
        "rate_floor": rate_floor,
        "plateau_deviation": plateau_dev,
        "worst": worst[:5],
    }


# ---------------------------------------------------------------------------
# derivative growth check


def gevrey_bound_check(fn, x, orders) -> list[dict]:
    """Fit, for each of several functions f on a 1-D sample x, the smallest
    C with |d^k f| <= C^(k+1) (k!)^2 <x>^(order - k), for k = 0, 1, 2: the
    Gevrey class of index 2.

    fn(nodes) returns one row per function with its values on the node
    array along the last axis (a row may stack several samples, such as
    times, ahead of it).  It is called once on each of x, x + step and
    x - step, step = 1e-2 <x> per point, and the rows are differentiated by
    central differences.  orders holds each function's base order.  Returns
    one fit per function over all its samples: the constants per order
    ("0", "1", "2") and their maximum.
    """
    x = np.asarray(x, dtype=np.float64)
    bh = np.sqrt(1.0 + x * x)
    step = 1e-2 * bh
    f0, fp, fm = (np.asarray(fn(nodes), dtype=np.float64) for nodes in (x, x + step, x - step))
    fits = []
    for r, order in enumerate(orders):
        ders = (f0[r], (fp[r] - fm[r]) / (2.0 * step), (fp[r] - 2.0 * f0[r] + fm[r]) / step**2)
        per: dict[str, float] = {}
        for k, der in enumerate(ders):
            env = math.factorial(k) ** 2.0 * bh ** (order - k)
            per[str(k)] = float(np.max(np.abs(der) / env) ** (1.0 / (k + 1.0)))
        fits.append({"C": float(np.max(list(per.values()))), "per_beta": per})  # a NaN order propagates
    return fits
