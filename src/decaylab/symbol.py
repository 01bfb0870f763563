"""Phase-space weight used to conjugate the evolution.

The weight exponent is Lambda(t, x, xi) = k(t) <x>_h^(1-sigma) + lam(x, xi).
Its time part is a decreasing schedule k(t) solving k' + N k + N (M+1) = 0.
Its phase part lam is built from an odd accumulated-decay profile along the
frequency direction omega = xi/|xi|:

    F(y, r2) = sign(y) * M * int_0^|y| (1 + r2 + z^2)^((1/s - 1)/2) dz

with y = x . omega and r2 = |x|^2 - y^2, blended by direction and frequency
cutoffs so that lam vanishes identically for |xi| <= h and is odd in xi.
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
covers every frequency node with |xi| >= 2h by checking each class once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import Grid, _node_rows

__all__ = [
    "LambdaParams",
    "ConjugationSchedule",
    "smooth_cutoff",
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
    index.  The admissible range is s < 1/(1 - sigma); passing critical=True
    relaxes it to s <= 1/(1 - sigma) for the borderline construction.
    Cutoffs are built from exp(-1/t) glue, so every piece has the same
    sub-analytic smoothness as the profile itself.
    """

    M: float
    h: float
    s: float
    sigma: float
    critical: bool = False

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
        if self.critical:
            if self.s > limit * (1.0 + 1e-12):
                raise ValueError(f"critical mode needs s <= {limit}, got {self.s}")
        elif not (self.s < limit):
            raise ValueError(
                f"s must satisfy s < 1/(1-sigma) = {limit}, got {self.s} "
                "(pass critical=True for the borderline case)"
            )


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


def _glue(t: np.ndarray) -> np.ndarray:
    # exp(-1/t) for t > 0, exactly 0 otherwise
    out = np.zeros_like(t)
    pos = t > 0
    np.divide(-1.0, t, out=out, where=pos)
    np.exp(out, out=out, where=pos)
    return out


def smooth_cutoff(r, lo: float, hi: float):
    """Even cutoff: exactly 1 for |r| <= lo, exactly 0 for |r| >= hi,
    smooth and monotone on the transition band."""
    if not (0 <= lo < hi):
        raise ValueError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    r = np.asarray(r, dtype=np.float64)
    scalar = r.ndim == 0
    t = (hi - np.abs(np.atleast_1d(r))) / (hi - lo)
    up = _glue(t)
    down = _glue(1.0 - t)
    out = np.where(t >= 1.0, 1.0, np.where(t <= 0.0, 0.0, up / np.where(up + down > 0, up + down, 1.0)))
    return float(out[0]) if scalar else out


def _dir_profile(u) -> np.ndarray:
    # direction blend chi at u = x . omega / <x>: plateau |u| <= 1/2,
    # vanishes for |u| >= 1
    return smooth_cutoff(u, 0.5, 1.0)


def _dir_slope(u) -> np.ndarray:
    # d/du of _dir_profile: with t = 2(1 - |u|), the derivative of
    # up/(up + down), up = exp(-1/t), down = exp(-1/(1-t)), on 0 < t < 1
    u = np.asarray(u, dtype=np.float64)
    t = 2.0 * (1.0 - np.abs(u))
    out = np.zeros_like(u)
    band = (t > 0.0) & (t < 1.0)
    tb = t[band]
    up = np.exp(-1.0 / tb)
    down = np.exp(-1.0 / (1.0 - tb))
    out[band] = -2.0 * np.sign(u[band]) * up * down * (1.0 / tb**2 + 1.0 / (1.0 - tb) ** 2) / (up + down) ** 2
    return out


def _freq_gate(xi_norm, h: float) -> np.ndarray:
    # 1 - cutoff: exactly 0 for |xi| <= h, exactly 1 for |xi| >= 2h
    return 1.0 - smooth_cutoff(np.asarray(xi_norm) / h, 1.0, 2.0)


# ---------------------------------------------------------------------------
# accumulated-decay profile


@lru_cache(maxsize=64)
def _panel_rule(nnode: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    # count equal panels of nnode Gauss-Legendre nodes on [0, 1], panel by
    # panel, as read-only columns: the node positions and their weights
    t, w = leggauss(nnode)
    frac = ((np.arange(count)[:, None] + 0.5 * (t + 1.0)) / count).reshape(-1, 1)
    wts = np.tile(w, count)[:, None]
    frac.flags.writeable = wts.flags.writeable = False
    return frac, wts


# float64 entries per scratch buffer of _profile_integral (512 KiB): a block
# of points times their quadrature nodes, so the scratch does not grow with
# the batch
_PROFILE_BLOCK = 1 << 16


def _profile_integral(y, rho_sq, s: float, nnode: int = 24, *, gap: bool = False) -> np.ndarray:
    """sign(y) * int_0^|y| f(z) dz with f(z) = (1 + rho_sq + z^2)^p and
    p = (1/s - 1)/2; with gap=True, f(z) = (1 + rho_sq + z^2)^p - (1 + z^2)^p,
    the difference of the profiles at rho_sq and at 0 as one integral.

    y and rho_sq broadcast to y's shape, which the result has.  Each point
    gets its own composite Gauss-Legendre rule: ceil(|y|/5) equal panels
    (at least one) of nnode nodes each, so no panel is longer than 5; the
    integrand is analytic on the real line, so the rule converges
    spectrally per panel.  Points are grouped by panel count and integrated
    in blocks that fill preallocated scratch, and each point's weighted
    node values are summed in a fixed pairwise order, so a value depends
    only on its own point: it is bitwise the same in any batch.
    """
    y = np.asarray(y, dtype=np.float64)
    rho = np.broadcast_to(np.asarray(rho_sq, dtype=np.float64), y.shape).ravel()
    ay = np.abs(y).ravel()
    npan = np.maximum(np.ceil(ay / 5.0), 1.0).astype(np.intp)
    power = 0.5 * (1.0 / s - 1.0)
    out = np.empty_like(ay)
    nodes = nnode * int(npan.max(initial=1))
    size = max(nodes, min(_PROFILE_BLOCK, nodes * ay.size))
    buf, buf0 = np.empty(size), np.empty(size if gap else 0)
    for count in np.flatnonzero(np.bincount(npan)):
        group = np.flatnonzero(npan == count)
        frac, wts = _panel_rule(nnode, int(count))
        per = size // frac.size
        for lo in range(0, group.size, per):
            sel = group[lo : lo + per]
            ab = ay[sel]
            f = buf[: frac.size * sel.size].reshape(frac.size, sel.size)
            np.multiply(frac, ab, out=f)  # z
            f *= f
            if gap:
                f0 = buf0[: f.size].reshape(f.shape)
                np.add(f, 1.0, out=f0)
                f0 **= power
            f += 1.0 + rho[sel]
            f **= power
            if gap:
                f -= f0
            f *= wts
            # pairwise fold over the nodes: the order depends on the node count only
            m = f.shape[0]
            while m > 1:
                half = m // 2
                f[:half] += f[m - half : m]
                m -= half
            out[sel] = f[0] * ab / (2.0 * count)
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
    lambda2 = M F(y, 0) is the profile with the transverse offset dropped."""
    lam1 = params.M * _profile_integral(y, rho_sq, params.s)
    lam2 = params.M * _profile_integral(y, np.zeros_like(y), params.s)
    ct = _dir_profile(y / bx)
    return -(lam1 * ct + lam2 * (1.0 - ct))


def _blend_slope(y, rho_sq, bx, params: LambdaParams, nnode: int) -> np.ndarray:
    """Exact derivative of _blend along omega.

    Along omega, y advances at unit rate and rho_sq is invariant, so
    d lambda1 = M (1 + rho_sq + y^2)^p (fundamental theorem of calculus),
    d lambda2 = M (1 + y^2)^p and d chi = chi'(y/<x>) (1 + rho_sq)/<x>^3,
    with p = (1/s - 1)/2.  The gap lambda1 - lambda2 is one integral of the
    integrand difference, taken only where chi' is nonzero.
    """
    p = 0.5 * (1.0 / params.s - 1.0)
    u = y / bx
    ct = _dir_profile(u)
    dct = _dir_slope(u) * (1.0 + rho_sq) / bx**3
    dlam1 = params.M * (1.0 + rho_sq + y * y) ** p
    dlam2 = params.M * (1.0 + y * y) ** p
    out = dlam1 * ct + dlam2 * (1.0 - ct)
    band = dct != 0.0
    if np.any(band):
        gap = _profile_integral(y[band], rho_sq[band], params.s, nnode, gap=True)
        out[band] += params.M * gap * dct[band]
    return -out


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
    sorting the keys sorts the vectors lexicographically.
    """
    prim = k // np.gcd.reduce(np.abs(k), axis=1)[:, None]
    # canonical antipodal representative: first nonzero component positive
    flip = (prim[:, 0] < 0) | ((prim[:, 0] == 0) & (prim[:, -1] < 0))
    prim[flip] *= -1
    # initial=0 keeps the box defined for an empty k (a closed gate)
    lo = prim.min(axis=0, initial=0)
    key = np.ravel_multi_index((prim - lo).T, prim.max(axis=0, initial=0) - lo + 1)
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    prim = prim[first]
    dirs = prim / np.sqrt(np.sum(prim * prim, axis=-1))[:, None]
    return dirs, cls, np.where(flip, -1.0, 1.0)


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

# Gauss-Legendre nodes per panel of the transport gap integral
_TRANSPORT_NNODE = 16


def transport_sign_check(grid: Grid, params: LambdaParams, *, direction_cap: int = 4096, seed: int = 0) -> dict:
    """Sign check of the transport quantity sum_j (d lam/d x_j) xi_j.

    For |xi| >= 2h the quantity divided by |xi| must not exceed
    -M <x>^(1/s - 1), with equality on the direction-cutoff plateau.  It
    depends on xi only through the direction class, so one check per
    primitive lattice direction covers every frequency node exactly.
    The directional derivative is the closed form of _blend_slope; a point
    violates the bound when it exceeds it by more than 4 ulp of the rate,
    the roundoff of the plateau identity.
    """
    if direction_cap < 1:
        raise ValueError(f"direction_cap must be at least 1, got {direction_cap}")
    j = _node_rows(grid)
    xpts, k = grid.x[j], grid.k_int[j]
    k = k[np.sqrt(np.sum(k * k, axis=-1)) * grid.dxi >= 2.0 * params.h]
    dirs, _, _ = _primitive_directions(k)
    total_dirs = dirs.shape[0]
    capped = total_dirs > direction_cap
    if capped:
        rng = np.random.default_rng(seed)
        dirs = dirs[rng.choice(total_dirs, size=direction_cap, replace=False)]

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
        der = _blend_slope(y, rho_sq, bx, params, _TRANSPORT_NNODE)
        # requirement: der + rate_ref <= 0
        excess = der + rate_ref
        violations += int(np.count_nonzero(excess > floor))
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
        "points_checked": int(xpts.shape[0] * dirs.shape[0]),
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


def gevrey_bound_check(fn, fixed_pts, diff_pts, *, theta: float, order: float = 0.0) -> dict:
    """Fit the smallest C with |d^k fn| <= C^(k+1) (k!)^theta <arg>^(order - k)
    over a 1-D sample, for k = 0, 1, 2.

    fn(fixed, diff) takes (npts, 1) columns and is differentiated in diff by
    central differences with per-point steps of 1e-2 <diff>.  Returns the
    fitted constants per order ("0", "1", "2") and their maximum.
    """
    fixed = np.asarray(fixed_pts, dtype=np.float64).reshape(-1, 1)
    diff = np.asarray(diff_pts, dtype=np.float64).reshape(-1, 1)
    bh = np.sqrt(1.0 + diff[:, 0] * diff[:, 0])
    step = 1e-2 * bh

    def ev(offset: np.ndarray) -> np.ndarray:
        return np.asarray(fn(fixed, diff + offset[:, None]), dtype=np.float64)

    f0 = ev(np.zeros_like(step))
    fp, fm = ev(step), ev(-step)
    ders = (f0, (fp - fm) / (2.0 * step), (fp - 2.0 * f0 + fm) / step**2)
    per: dict[str, float] = {}
    for k, der in enumerate(ders):
        env = math.factorial(k) ** theta * bh ** (order - k)
        per[str(k)] = float(np.max(np.abs(der) / env) ** (1.0 / (k + 1.0)))
    return {"C": max(per.values()), "per_beta": per}
