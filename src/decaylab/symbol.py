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

All phase-space checks exploit that the transport quantity divided by |xi|
depends on xi only through omega, so verifying one radius per lattice
direction class covers every lattice point of the frequency grid exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import Grid

__all__ = [
    "LambdaParams",
    "ConjugationSchedule",
    "smooth_cutoff",
    "lambda1",
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

    def ode_residual(self, t):
        t = self._check_t(t)
        out = self.kprime(t) + self.Nconst * np.asarray(self.k(t)) + self.Nconst * (self.M + 1.0)
        return float(out) if np.ndim(out) == 0 else out


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


@lru_cache(maxsize=8)
def _gl_rule(nnode: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = leggauss(nnode)
    return t, w


def _profile_integral(y, rho_sq, s: float, nnode: int = 24) -> np.ndarray:
    """sign(y) * int_0^|y| (1 + rho_sq + z^2)^((1/s-1)/2) dz.

    Composite Gauss-Legendre with panels no longer than 5; the integrand is
    analytic on the real line so the rule converges spectrally per panel.
    """
    y = np.asarray(y, dtype=np.float64)
    rho_sq = np.broadcast_to(np.asarray(rho_sq, dtype=np.float64), y.shape)
    ay = np.abs(y)
    ymax = float(ay.max()) if ay.size else 0.0
    if ymax == 0.0:
        return np.zeros_like(y)
    npan = max(1, int(np.ceil(ymax / 5.0)))
    t, w = _gl_rule(nnode)
    power = 0.5 * (1.0 / s - 1.0)
    total = np.zeros_like(y)
    base = rho_sq[..., None]
    for p in range(npan):
        z = ay[..., None] * ((p + 0.5 * (t + 1.0)) / npan)
        total = total + (1.0 + base + z * z) ** power @ w
    return np.sign(y) * total * ay / (2.0 * npan)


def _as_points(x, xi, dim):
    """Canonicalize to coordinate rows (..., d), d in {1, 2}.

    Scalars describe one-dimensional points.  Flat arrays are ambiguous
    only for length 2; pass dim explicitly there."""
    x = np.asarray(x, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    scalar = x.ndim == 0 and xi.ndim == 0
    if x.ndim == 0:
        x = x[None]
    if xi.ndim == 0:
        xi = xi[None]
    x, xi = np.broadcast_arrays(x, xi)
    if dim is None:
        dim = 2 if x.shape[-1] == 2 else 1
    if dim == 1:
        # flat arrays are coordinate lists, whatever their length
        if x.ndim == 1 or x.shape[-1] != 1:
            x = x[..., None]
            xi = xi[..., None]
    elif x.ndim == 1:
        # a single 2-component point becomes a batch of one
        x = x[None, :]
        xi = xi[None, :]
    if x.shape[-1] != dim:
        raise ValueError(f"points have {x.shape[-1]} components, expected {dim}")
    return np.ascontiguousarray(x), np.ascontiguousarray(xi), dim, scalar


def _geometry(x, xi):
    # y = x . omega, rho_sq = |x|^2 - y^2 >= 0, both per point
    xin = np.sqrt(np.sum(xi * xi, axis=-1))
    if np.any(xin == 0.0):
        raise ValueError("xi must be nonzero to define a direction")
    omega = xi / xin[..., None]
    y = np.sum(x * omega, axis=-1)
    rho_sq = np.maximum(np.sum(x * x, axis=-1) - y * y, 0.0)
    return y, rho_sq, xin


def lambda1(x, xi, params: LambdaParams, *, dim=None, nnode: int = 24):
    """Accumulated-decay profile along omega = xi/|xi| at the full
    transverse offset: F(x . omega, |x|^2 - (x . omega)^2).  Odd in xi."""
    x, xi, _, scalar = _as_points(x, xi, dim)
    y, rho_sq, _ = _geometry(x, xi)
    out = params.M * _profile_integral(y, rho_sq, params.s, nnode)
    return float(out[0]) if scalar else out


def _blend(y, rho_sq, bx, params: LambdaParams, nnode: int) -> np.ndarray:
    """-(lambda1 * chi + lambda2 * (1 - chi)) given the direction geometry;
    lambda2 = M F(y, 0) is the profile with the transverse offset dropped."""
    lam1 = params.M * _profile_integral(y, rho_sq, params.s, nnode)
    lam2 = params.M * _profile_integral(y, np.zeros_like(y), params.s, nnode)
    ct = _dir_profile(y / bx)
    return -(lam1 * ct + lam2 * (1.0 - ct))


def _blend_slope(y, rho_sq, bx, params: LambdaParams, nnode: int) -> np.ndarray:
    """Exact derivative of _blend along omega.

    Along omega, y advances at unit rate and rho_sq is invariant, so
    d lambda1 = M (1 + rho_sq + y^2)^p (fundamental theorem of calculus),
    d lambda2 = M (1 + y^2)^p and d chi = chi'(y/<x>) (1 + rho_sq)/<x>^3,
    with p = (1/s - 1)/2.  The gap lambda1 - lambda2 is integrated only
    where chi' is nonzero.
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
        yb = y[band]
        gap = _profile_integral(yb, rho_sq[band], params.s, nnode)
        gap -= _profile_integral(yb, np.zeros_like(yb), params.s, nnode)
        out[band] += params.M * gap * dct[band]
    return -out


def lambda_sym(x, xi, params: LambdaParams, *, dim=None, nnode: int = 24):
    """Full phase part: frequency gate times the direction blend.

    Exactly zero for |xi| <= h, odd in xi, nonpositive where x . xi > 0,
    and bounded by a multiple of M <x>^(1/s) uniformly in xi.
    """
    x, xi, d, scalar = _as_points(x, xi, dim)
    xin = np.sqrt(np.sum(xi * xi, axis=-1))
    out = np.zeros(x.shape[:-1], dtype=np.float64)
    gate = _freq_gate(xin, params.h)
    act = gate > 0.0
    if np.any(act):
        xa = x[act]
        xia = xi[act]
        y, rho_sq, _ = _geometry(xa, xia)
        bx = np.sqrt(1.0 + np.sum(xa * xa, axis=-1))
        out[act] = gate[act] * _blend(y, rho_sq, bx, params, nnode)
    return float(out[0]) if scalar else out


def lambda_on_grid(grid: Grid, params: LambdaParams, *, nnode: int = 24, xi_chunk: int = 1024) -> np.ndarray:
    """Evaluate the phase part on the full tensor grid.

    Returns an array of shape grid.shape + grid.shape: spatial indices
    first, frequency indices last, matching the dense-operator layout.
    """
    xs = grid.x_mesh if grid.dim == 2 else (grid.x,)
    xis = grid.xi_mesh if grid.dim == 2 else (grid.xi,)
    xpts = np.stack([a.ravel() for a in xs], axis=-1)
    xipts = np.stack([a.ravel() for a in xis], axis=-1)
    nx, nxi = xpts.shape[0], xipts.shape[0]
    out = np.zeros((nx, nxi), dtype=np.float64)
    bx = np.sqrt(1.0 + np.sum(xpts * xpts, axis=-1))
    xnorm2 = np.sum(xpts * xpts, axis=-1)
    for start in range(0, nxi, xi_chunk):
        blk = xipts[start : start + xi_chunk]
        xin = np.sqrt(np.sum(blk * blk, axis=-1))
        gate = _freq_gate(xin, params.h)
        act = np.nonzero(gate > 0.0)[0]
        if act.size == 0:
            continue
        omega = blk[act] / xin[act][:, None]
        y = xpts @ omega.T
        rho_sq = np.maximum(xnorm2[:, None] - y * y, 0.0)
        vals = _blend(y, rho_sq, bx[:, None], params, nnode)
        out[:, start + act] = gate[act][None, :] * vals
    return out.reshape(grid.shape + grid.shape)


def c_of_lambda(params: LambdaParams, L: float, n: int, *, dim: int = 1, nnode: int = 24) -> float:
    """Grid estimate of the smallest c with |lambda_sym| <= c <x>^(1/s):
    the maximum of |lambda_sym| / <x>^(1/s) over the sampled phase grid.

    In one dimension |lambda| = gate(|xi|) |blend(x, sign xi)| factorizes
    over the product lattice, so the maximum is computed per factor; the
    value equals the dense scan exactly."""
    g = Grid(dim=dim, n=n, L=L)
    if dim == 1:
        gate = _freq_gate(np.abs(g.xi), params.h)
        gmax = 0.0
        for side in (g.xi > 0, g.xi < 0):
            if np.any(side):
                gmax = max(gmax, float(gate[side].max()))
        bx = np.sqrt(1.0 + g.x * g.x)
        vals = np.abs(_blend(g.x, np.zeros_like(g.x), bx, params, nnode))
        return float(gmax * (vals / bx ** (1.0 / params.s)).max())
    field = lambda_on_grid(g, params, nnode=nnode)
    bx = np.sqrt(1.0 + g.x_norm**2) ** (1.0 / params.s)
    flat = np.abs(field).reshape(g.node_count, g.node_count)
    return float((flat.max(axis=1) / bx.ravel()).max())


# ---------------------------------------------------------------------------
# transport check


def _primitive_directions(grid: Grid, h: float) -> np.ndarray:
    """Direction classes of every frequency node with |xi| >= 2h, as unit
    vectors, reduced modulo scaling and antipodal symmetry."""
    if grid.dim == 1:
        return np.array([[1.0]])
    K1, K2 = np.meshgrid(grid.k_int, grid.k_int, indexing="ij")
    k = np.stack([K1.ravel(), K2.ravel()], axis=-1)
    xin = np.sqrt(np.sum(k * k, axis=-1)) * grid.dxi
    k = k[xin >= 2.0 * h]
    if k.size == 0:
        return np.zeros((0, 2))
    g = np.gcd(np.abs(k[:, 0]), np.abs(k[:, 1]))
    prim = k // g[:, None]
    # canonical antipodal representative: first nonzero component positive
    flip = (prim[:, 0] < 0) | ((prim[:, 0] == 0) & (prim[:, 1] < 0))
    prim[flip] *= -1
    prim = np.unique(prim, axis=0)
    return prim / np.sqrt(np.sum(prim * prim, axis=-1))[:, None]


def transport_sign_check(grid: Grid, params: LambdaParams, *, direction_cap: int = 4096, nnode: int = 16, seed: int = 0) -> dict:
    """Sign check of the transport quantity sum_j (d lam/d x_j) xi_j.

    For |xi| >= 2h the quantity divided by |xi| must not exceed
    -M <x>^(1/s - 1), with equality on the direction-cutoff plateau.  It
    depends on xi only through the direction class, so one check per
    primitive lattice direction covers every frequency node exactly.
    The directional derivative is the closed form of _blend_slope; a point
    violates the bound when it exceeds it by more than 4 ulp of the rate,
    the roundoff of the plateau identity.
    """
    dirs = _primitive_directions(grid, params.h)
    total_dirs = dirs.shape[0]
    capped = total_dirs > direction_cap
    if capped:
        rng = np.random.default_rng(seed)
        dirs = dirs[rng.choice(total_dirs, size=direction_cap, replace=False)]

    xs = grid.x_mesh if grid.dim == 2 else (grid.x,)
    xpts = np.stack([a.ravel() for a in xs], axis=-1)
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
        der = _blend_slope(y, rho_sq, bx, params, nnode)
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


def _multi_indices(d: int, max_order: int) -> list[tuple[int, ...]]:
    if d == 1:
        return [(k,) for k in range(1, max_order + 1)]
    out = []
    for total in range(1, max_order + 1):
        for i in range(total + 1):
            out.append((total - i, i))
    return out


def _factorial_pow(beta: tuple[int, ...], theta: float) -> float:
    f = 1.0
    for b in beta:
        for k in range(2, b + 1):
            f *= k
    return f**theta


def gevrey_bound_check(fn, fixed_pts, diff_pts, *, theta: float, h: float = 1.0, order: float = 0.0, weight=None, max_order: int = 2, fd_frac: float = 1e-2) -> dict:
    """Fit the smallest C with |D^beta fn| <= C^(|beta|+1) (beta!)^theta
    <arg>_h^(order - |beta|) * weight over the sample, for |beta| <= max_order.

    fn(fixed, diff) is differentiated in its second argument by central
    differences with per-point steps proportional to the bracket scale.
    Returns the fitted constants per multi-index and their maximum.
    """
    fixed = np.asarray(fixed_pts, dtype=np.float64)
    diff = np.asarray(diff_pts, dtype=np.float64)
    if diff.ndim == 1:
        diff = diff[:, None]
    if fixed.ndim == 1:
        fixed = fixed[:, None]
    d = diff.shape[-1]
    npts = diff.shape[0]
    bh = np.sqrt(h * h + np.sum(diff * diff, axis=-1))
    wgt = np.asarray(weight(fixed), dtype=np.float64) if weight is not None else np.ones(npts)
    step = fd_frac * bh

    def ev(offsets: np.ndarray) -> np.ndarray:
        return np.asarray(fn(fixed, diff + offsets), dtype=np.float64)

    def unit(j: int) -> np.ndarray:
        v = np.zeros((npts, d))
        v[:, j] = step
        return v

    per: dict[str, float] = {}
    f0 = ev(np.zeros((npts, d)))
    c0 = np.max(np.abs(f0) / (bh**order * wgt))
    per["0" * d] = float(c0)
    cmax = float(c0)
    for beta in _multi_indices(d, max_order):
        tot = sum(beta)
        if d == 1:
            (b1,) = beta
            if b1 == 1:
                der = (ev(unit(0)) - ev(-unit(0))) / (2.0 * step)
            else:
                der = (ev(unit(0)) - 2.0 * f0 + ev(-unit(0))) / step**2
        else:
            b1, b2 = beta
            if (b1, b2) == (1, 0):
                der = (ev(unit(0)) - ev(-unit(0))) / (2.0 * step)
            elif (b1, b2) == (0, 1):
                der = (ev(unit(1)) - ev(-unit(1))) / (2.0 * step)
            elif (b1, b2) == (2, 0):
                der = (ev(unit(0)) - 2.0 * f0 + ev(-unit(0))) / step**2
            elif (b1, b2) == (0, 2):
                der = (ev(unit(1)) - 2.0 * f0 + ev(-unit(1))) / step**2
            else:
                der = (
                    ev(unit(0) + unit(1))
                    - ev(unit(0) - unit(1))
                    - ev(-unit(0) + unit(1))
                    + ev(-unit(0) - unit(1))
                ) / (4.0 * step * step)
        env = _factorial_pow(beta, theta) * bh ** (order - tot) * wgt
        c = float(np.max(np.abs(der) / env) ** (1.0 / (tot + 1.0)))
        per["".join(str(b) for b in beta)] = c
        cmax = max(cmax, c)
    return {"C": cmax, "per_beta": per, "max_order": max_order, "h": h}
