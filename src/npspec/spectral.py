"""Dense boundary operator discretization and spectral counting.

Nystrom assembly on the Gauss-Legendre x trapezoid surface rule, with
the singularity at each target node handled by a blended polar patch:
a smooth radial cutoff chi splits the integral into a far part summed
by the plain rule and a near part integrated in chart polar
coordinates, where even angular sampling cancels the odd degree -2
kernel component in the principal value sense.  The patch has a fixed
physical size (a fraction of the chart radius), so the cutoff stays
resolved by the global rule as the grid refines; its polar quadrature
grows with the patch-to-mesh ratio to keep the density resolved.
Patch points, normals and area factors come from one batched chart
solve per target node (CCoordinateChart.geometry, shared with symbol
extraction), the same path on every surface kind.  The
near-field density is coupled back to grid values through a local
tensor barycentric interpolation stencil (with pole reflection),
applied in transpose so the result is a matrix acting on grid data.
One pass over the target nodes serves the double and single layer.

Downstream utilities: eigenvalue extraction with a reality check,
single layer symmetrization, cluster counting functions, power-law
fits of counting data, and polynomial compactness diagnostics.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .elasticity import kelvin_matrix, np_kernel
from .surfaces import c_chart
from .symbols import SpectralPolynomial, matrix_polynomial


# Blended polar patch: radii are multiples of the local mesh size
# h = sqrt(node weight), capped at a fraction of the chart radius.  With
# these multiples the cap binds at any practical resolution, so the
# patch keeps a fixed physical size and the cutoff remains smooth on the
# scale the global rule resolves; an h-scaled patch stalls the far field
# at first order.  The polar rule grows with the patch-to-mesh ratio.
_PATCH_INNER = 24.0
_PATCH_OUTER = 48.0
_PATCH_CAP = 0.8
# points per direction of the tensor interpolation stencil
_INTERP_ORDER = 8
# counting grids start at this fraction of the root gap
_TAU_FLOOR = 1e-3
# power-law fits need this many nonzero counts spanning this many decades
_FIT_MIN_POINTS = 8
_FIT_MIN_DECADES = 1.0
# share of the smallest-tau counting samples dropped as under-resolved
_PRUNE_FRACTION = 1.0 / 3.0


def _smoothstep(s, r1, r2):
    """C^2 cutoff: 1 below r1, 0 above r2, quintic blend between."""
    s = np.asarray(s, dtype=float)
    t = np.clip((s - r1) / (r2 - r1), 0.0, 1.0)
    out = 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t)
    return out if out.ndim else float(out)


class _GridInfo:
    """Latitude/longitude structure behind a product surface rule."""

    def __init__(self, quad):
        n2 = quad.size
        n = round(math.sqrt(n2 / 2.0))
        if 2 * n * n != n2:
            raise ValueError("quadrature is not an n x 2n product rule")
        self.n_lat = n
        self.n_phi = 2 * n
        self.thetas = quad.params[:: self.n_phi, 0].copy()
        self.phis = quad.params[: self.n_phi, 1].copy()
        if not np.all(np.diff(self.thetas) < 0):
            raise ValueError("latitudes not monotone in the expected row order")

    def node_index(self, lat, col):
        return lat * self.n_phi + col % self.n_phi


def _batch_stencil(grid, thetas, phis, order):
    """Nodes and weights interpolating grid data at many (theta, phi).

    Tensor barycentric Lagrange on `order` nearest latitudes and
    longitudes.  Latitude windows that would cross a pole use
    reflected rows (theta -> -theta or 2 pi - theta, phi + pi), which
    represent the same smooth function across the pole.  Returns
    integer node indices and weights of shape (npts, order**2).
    """
    p = order
    ts = grid.thetas[::-1]
    n = grid.n_lat
    r = min(p, n)  # reflected rows per pole; a grid has only n to reflect
    ext_t = np.concatenate([-ts[:r][::-1], ts, 2.0 * math.pi - ts[-r:][::-1]])
    ext_lat = np.concatenate(
        [np.arange(r - 1, -1, -1), np.arange(n), np.arange(n - 1, n - r - 1, -1)]
    )
    ext_shift = np.concatenate([np.ones(r, bool), np.zeros(n, bool), np.ones(r, bool)])
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    lo = np.searchsorted(ext_t, thetas) - p // 2
    lo = np.clip(lo, 0, len(ext_t) - p)
    win = lo[:, None] + np.arange(p)[None, :]
    tn = ext_t[win]
    diff = tn[:, :, None] - tn[:, None, :]
    np.einsum("mii->mi", diff)[...] = 1.0
    dt = thetas[:, None] - tn
    hit_t = np.abs(dt) < 1e-14
    wt = (1.0 / diff.prod(axis=2)) / np.where(hit_t, 1.0, dt)
    wt = np.where(
        hit_t.any(axis=1)[:, None], hit_t.astype(float), wt / wt.sum(axis=1)[:, None]
    )
    dphi = 2.0 * math.pi / grid.n_phi
    lat = (n - 1) - ext_lat[win]
    target = phis[:, None] + np.where(ext_shift[win], math.pi, 0.0)
    j0 = np.rint(target / dphi).astype(int)
    cols = j0[:, :, None] + (np.arange(p) - p // 2)[None, None, :]
    dp = target[:, :, None] - cols * dphi
    hit_p = np.abs(dp) < 1e-14
    # uniform longitude nodes: barycentric weights are alternating binomials
    ub = np.array([(-1.0) ** b * math.comb(p - 1, b) for b in range(p)])
    wp = ub[None, None, :] / np.where(hit_p, 1.0, dp)
    wp = np.where(
        hit_p.any(axis=2)[:, :, None],
        hit_p.astype(float),
        wp / wp.sum(axis=2)[:, :, None],
    )
    idx = lat[:, :, None] * grid.n_phi + np.mod(cols, grid.n_phi)
    wgt = wt[:, :, None] * wp
    m = len(thetas)
    return idx.reshape(m, p * p), wgt.reshape(m, p * p)


def _interp_matrix(idx, wgt, n_nodes):
    """Dense (npts, n_nodes) stencil weights, repeated nodes summed."""
    npts = len(idx)
    flat = (np.arange(npts)[:, None] * n_nodes + idx).ravel()
    return np.bincount(flat, wgt.ravel(), npts * n_nodes).reshape(npts, n_nodes)


def _patch_points(chart, r1, r2, n_radial, n_angular):
    """Polar patch rule in chart coordinates: points, weights, cutoff.

    Gauss-Legendre in radius on (0, r1) and (r1, r2), trapezoid in
    angle; the angular count is even so the odd part of the degree -2
    kernel cancels pointwise in radius (the principal value).
    """
    gl_x, gl_w = leggauss(n_radial)
    rr, ww = [], []
    for lo, hi in ((0.0, r1), (r1, r2)):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        rr.append(mid + half * gl_x)
        ww.append(gl_w * half)
    rr, ww = np.concatenate(rr), np.concatenate(ww)
    ang = 2.0 * np.pi * np.arange(n_angular) / n_angular
    ang_w = 2.0 * np.pi / n_angular
    w12 = rr[:, None, None] * np.stack(
        [np.cos(ang), np.sin(ang)], axis=-1)[None, :, :]
    wr = np.repeat(ww * rr * ang_w, n_angular)
    chi = np.repeat(_smoothstep(rr, r1, r2), n_angular)
    return w12.reshape(-1, 2), wr, chi


def _assemble(surface, quad, kernels):
    """Nystrom matrices of kernel(x, y, nu_y) -> (..., 3, 3), one per
    kernel; each node's chart, patch geometry, cutoff and interpolation
    matrix are computed once for all kernels."""
    grid = _GridInfo(quad)
    n_nodes = quad.size
    mats = [np.zeros((3 * n_nodes, 3 * n_nodes)) for _ in kernels]
    pts = quad.points
    nrms = quad.normals
    wts = quad.weights
    for i in range(n_nodes):
        th, ph = quad.params[i]
        chart = c_chart(surface, th, ph)
        h = math.sqrt(wts[i])
        r2 = min(_PATCH_OUTER * h, _PATCH_CAP * chart.radius)
        r1 = min(_PATCH_INNER * h, 0.5 * r2)
        n_radial = max(10, int(math.ceil(1.6 * r2 / h)) + 2)
        n_angular = max(16, 2 * int(math.ceil(2.1 * r2 / h)))
        x = pts[i]
        others = np.arange(n_nodes) != i
        factors = wts.copy()
        d3 = pts - x[None, :]
        dist = np.linalg.norm(d3, axis=1)
        near = (dist < 1.5 * r2) & (dist > 0.0)
        if near.any():
            wj = np.stack([d3[near] @ chart.e1, d3[near] @ chart.e2], axis=1)
            factors[near] *= 1.0 - _smoothstep(
                np.linalg.norm(wj, axis=1), r1, r2
            )
        w12, wr, chi = _patch_points(chart, r1, r2, n_radial, n_angular)
        q, nu, area = chart.geometry(w12)
        tq = np.arccos(np.clip(q[:, 2] / np.linalg.norm(q, axis=1), -1.0, 1.0))
        pq = np.arctan2(q[:, 1], q[:, 0])
        idx, wgt = _batch_stencil(grid, tq, pq, _INTERP_ORDER)
        interp = _interp_matrix(idx, wgt, n_nodes)
        qw = (wr * chi * area)[:, None, None]
        for mat, kernel in zip(mats, kernels):
            block = np.zeros((n_nodes, 3, 3))
            block[others] = kernel(x, pts[others], nrms[others])
            block *= factors[:, None, None]
            contrib = qw * kernel(x, q, nu)
            block += (interp.T @ contrib.reshape(-1, 9)).reshape(n_nodes, 3, 3)
            mat[3 * i : 3 * i + 3, :] = np.transpose(block, (1, 0, 2)).reshape(3, -1)
    return mats


def assemble_operators(surface, params, quad):
    """Dense Nystrom matrices (K, S) of the double and single layer
    operators from one pass over the target nodes.

    K pairs the density against the transposed traction-of-Kelvin
    matrix, under which rigid motions are 1/2-eigenfunctions.  S is
    normalized so its flat-boundary symbol is single_layer_symbol
    (negative definite), and averaged with its adjoint in the
    quadrature inner product (sqrt-weight frame), where the continuous
    operator is symmetric; a flat (M + M^T)/2 mixes rows with unequal
    weights and spoils definiteness on refinement.  -S should be
    positive definite at adequate resolution.
    """
    def double_layer(x, y, nu):
        return np.swapaxes(np_kernel(params, x, y, nu), -1, -2)

    def single_layer(x, y, nu):
        return -0.5 * kelvin_matrix(params, x, y)

    k_mat, s_mat = _assemble(surface, quad, (double_layer, single_layer))
    # in place, so no second N x N copy of S outlives the average
    sw = np.repeat(np.sqrt(quad.weights), 3)
    s_mat *= sw[:, None]
    s_mat /= sw[None, :]
    s_mat += s_mat.T
    s_mat *= 0.5
    s_mat *= sw[None, :]
    s_mat /= sw[:, None]
    return k_mat, s_mat


def spectrum(mat, imag_tol=1e-6):
    """Sorted real eigenvalues, rejecting genuinely complex spectra."""
    vals = np.linalg.eigvals(np.asarray(mat))
    rho = max(np.abs(vals).max(), 1e-30)
    worst = np.abs(vals.imag).max()
    if worst > imag_tol * rho:
        raise ValueError(
            "matrix spectrum has imaginary parts %.3e beyond tolerance" % worst
        )
    return np.sort(vals.real)


def symmetrize(k_mat, s_mat, weights=None, floor=1e-3, indefinite_tol=1e-2):
    """Similarity transform to a symmetric matrix via the single layer.

    With quadrature weights given, both matrices are first conjugated
    by sqrt-weights into the frame where the transpose is the discrete
    L2 adjoint; the symmetry identity K S = S K^T only closes there.
    Uses P = -sym(S) = V L V^T (positive definite) and returns
    (sym(a), info) with a = L^(-1/2) B L^(1/2) and B = V^T K V: the
    matrix P^(-1/2) K P^(1/2) written in the eigenbasis of P, so two
    N^3 products serve the transform and both diagnostics.  The
    similarity preserves the spectrum of K exactly before the final
    averaging.

    Eigenvalues of P below floor x max are clipped to that level
    before taking square roots: on refinement the smallest discrete
    single layer eigenvalues sit at the resolution edge and may dip
    slightly negative.  Clipping touches only those unresolved modes;
    the count is reported, not hidden.  P with eigenvalues below
    -indefinite_tol x max is rejected as genuinely indefinite.

    info holds plemelj_residual |K P - P K^T| / (|K| |S|), measured
    against P = -sym(S) as |B L - L B^T| (Frobenius norms are invariant
    under V), the symmetry_defect of a before averaging, clipped_modes
    and p_min_ratio (min/max eigenvalue of P).
    """
    k = np.asarray(k_mat, dtype=float)
    s = np.asarray(s_mat, dtype=float)
    if weights is not None:
        sw = np.repeat(np.sqrt(np.asarray(weights, dtype=float)), 3)
        if sw.size != k.shape[0]:
            raise ValueError("weights do not match matrix size")
        k = sw[:, None] * k / sw[None, :]
        s = sw[:, None] * s / sw[None, :]
    vals, vecs = np.linalg.eigh(-0.5 * (s + s.T))
    vmax = vals.max()
    if vmax <= 0.0 or vals.min() < -indefinite_tol * vmax:
        raise ValueError(
            "-S is not positive definite (eigenvalue range %.3e .. %.3e); "
            "refine the grid" % (vals.min(), vmax)
        )
    clipped = int(np.sum(vals < floor * vmax))
    root = np.sqrt(np.maximum(vals, floor * vmax))
    b = vecs.T @ k @ vecs
    plemelj = np.linalg.norm(b * vals - vals[:, None] * b.T) / max(
        np.linalg.norm(k) * np.linalg.norm(s), 1e-30
    )
    a = b * root / root[:, None]
    defect = np.linalg.norm(a - a.T) / max(np.linalg.norm(a), 1e-30)
    return 0.5 * (a + a.T), {
        "symmetry_defect": defect,
        "plemelj_residual": plemelj,
        "clipped_modes": clipped,
        "p_min_ratio": float(vals.min() / vmax),
    }


def cluster_windows(roots, guard=0.05):
    """Counting windows (zeta_minus, zeta_plus) around each root.

    Edges sit at midpoints between consecutive roots, pulled inward by
    guard x gap; extremal sides mirror the interior half width.
    """
    om = np.sort(np.asarray(roots, dtype=float))
    if om.size < 1:
        raise ValueError("no roots")
    gaps = np.diff(om)
    wins = []
    for i, w in enumerate(om):
        left_gap = gaps[i - 1] if i > 0 else gaps[0] if gaps.size else 1.0
        right_gap = gaps[i] if i < gaps.size else gaps[-1] if gaps.size else 1.0
        half_l = (0.5 - guard) * left_gap
        half_r = (0.5 - guard) * right_gap
        wins.append((w - half_l, w + half_r))
    return om, wins


def cluster_and_count(eigenvalues, roots, n_tau=24, guard=0.05):
    """Two-sided counting functions near each essential spectrum root.

    Returns a list of records {root, window, tau, n_plus, n_minus,
    total} with tau on a geometric grid from _TAU_FLOOR x gap up to the
    window half width.  n_plus(tau) counts eigenvalues in
    (root + tau, zeta_plus], n_minus in [zeta_minus, root - tau).
    """
    if isinstance(roots, SpectralPolynomial):
        roots = roots.roots
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    om, wins = cluster_windows(roots, guard=guard)
    out = []
    for w, (zl, zr) in zip(om, wins):
        width = min(w - zl, zr - w)
        taus = np.geomspace(_TAU_FLOOR * width / (0.5 - guard), width, n_tau)
        npl = np.array([np.sum((ev > w + t) & (ev <= zr)) for t in taus])
        nmi = np.array([np.sum((ev < w - t) & (ev >= zl)) for t in taus])
        out.append(
            {
                "root": float(w),
                "window": (float(zl), float(zr)),
                "tau": taus,
                "n_plus": npl,
                "n_minus": nmi,
                "total": int(np.sum((ev >= zl) & (ev <= zr))),
            }
        )
    return out


@dataclass(frozen=True)
class FitResult:
    """Power-law fit n(tau) ~ C tau^(-h) of counting data."""

    h: float
    c: float
    residual: float
    points_used: int


def fit_power_law(tau, counts):
    """Log-log least squares fit over the asymptotic subrange.

    Keeps strictly positive counts, requires at least _FIT_MIN_POINTS
    samples spanning _FIT_MIN_DECADES in tau, and fits the largest-count
    half of the data (the small-tau side, where the asymptotic law
    dominates).  residual is the max |log n - log fit| over the points
    used.
    """
    tau = np.asarray(tau, dtype=float)
    counts = np.asarray(counts, dtype=float)
    keep = counts >= 1.0
    tau, counts = tau[keep], counts[keep]
    if tau.size < _FIT_MIN_POINTS:
        raise ValueError("too few nonzero counting samples: %d" % tau.size)
    if math.log10(tau.max() / tau.min()) < _FIT_MIN_DECADES:
        raise ValueError("counting samples span less than the required decades")
    order = np.argsort(counts)[::-1]
    m = max(_FIT_MIN_POINTS // 2, order.size // 2)
    sel = np.sort(order[:m])
    lt, ln = np.log(tau[sel]), np.log(counts[sel])
    a = np.column_stack([np.ones_like(lt), -lt])
    coef, *_ = np.linalg.lstsq(a, ln, rcond=None)
    resid = np.abs(a @ coef - ln).max()
    return FitResult(
        h=float(coef[1]), c=float(math.exp(coef[0])), residual=float(resid),
        points_used=int(m),
    )


def prune_counting_samples(tau, counts):
    """Drop the smallest-tau _PRUNE_FRACTION of discretized counting data.

    Finite matrices under-resolve the spectrum nearest the root, so
    the smallest tau values are biased; exact counting data needs no
    pruning.
    """
    tau = np.asarray(tau, dtype=float)
    counts = np.asarray(counts, dtype=float)
    order = np.argsort(tau)
    k = int(len(tau) * _PRUNE_FRACTION)
    keep = np.sort(order[k:])
    return tau[keep], counts[keep]


def level_multiplicities(eigenvalues, levels, window):
    """Measured multiplicities of eigenvalues against reference levels.

    Assigns each eigenvalue inside `window` = (lo, hi) to the nearest
    reference level and returns (counts, max_residual) where
    max_residual is the largest assignment distance relative to the
    local level spacing.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    lv = np.asarray(levels, dtype=float)
    lo, hi = window
    ev = ev[(ev >= lo) & (ev <= hi)]
    counts = np.zeros(lv.size, dtype=int)
    worst = 0.0
    for v in ev:
        j = int(np.argmin(np.abs(lv - v)))
        counts[j] += 1
        gap = np.min(np.abs(np.delete(lv, j) - lv[j])) if lv.size > 1 else 1.0
        worst = max(worst, abs(v - lv[j]) / max(gap, 1e-30))
    return counts, worst


def certified_multiplicities(eigs_coarse, eigs_fine, levels, window):
    """Multiplicities stable between two resolutions.

    Returns (counts, k_star) where counts are the fine-grid
    multiplicities and k_star is the largest contiguous level index
    (from the start) on which coarse and fine counts agree exactly.
    """
    c_coarse, _ = level_multiplicities(eigs_coarse, levels, window)
    c_fine, _ = level_multiplicities(eigs_fine, levels, window)
    k_star = 0
    for a, b in zip(c_coarse, c_fine):
        if a != b or b == 0:
            break
        k_star += 1
    return c_fine, k_star


def compactness_check(
    mat_or_eigs,
    roots,
    central=(0.1, 0.5),
    mapping_limit=1200,
    imag_tol=1e-6,
):
    """Diagnostics that p(K) behaves like a compact operator power.

    Checks (i) spectral mapping, eig(p(K)) = p(eig(K)), when a matrix
    of dimension <= mapping_limit is supplied; (ii) the decay rate of
    sorted |p(lambda_j)| ~ j^(-1/2) over the central index range;
    (iii) the distance bound dist(lambda, roots) <= |p(lambda)| /
    min |p'| over each cluster window.  Returns a report dict.
    """
    if isinstance(roots, SpectralPolynomial):
        poly = roots
    else:
        poly = SpectralPolynomial(roots=tuple(roots))
    mat = None
    arr = np.asarray(mat_or_eigs)
    if arr.ndim == 2:
        mat = arr
        eigs = spectrum(mat, imag_tol=imag_tol)
    else:
        eigs = np.sort(arr.astype(float))
    pvals = poly(eigs)
    report = {}
    if mat is not None and mat.shape[0] <= mapping_limit:
        pk = matrix_polynomial(poly.coefficients(), mat)
        via_matrix = np.sort(np.linalg.eigvals(pk).real)
        via_values = np.sort(pvals)
        scale = max(np.abs(via_values).max(), 1e-30)
        report["mapping_defect"] = float(
            np.abs(via_matrix - via_values).max() / scale
        )
    mags = np.sort(np.abs(pvals))[::-1]
    mags = mags[mags > 0]
    m = mags.size
    lo, hi = max(1, int(central[0] * m)), max(2, int(central[1] * m))
    js = np.arange(lo, hi)
    lj, lm = np.log(js.astype(float)), np.log(mags[lo:hi])
    a = np.column_stack([np.ones_like(lj), lj])
    coef, *_ = np.linalg.lstsq(a, lm, rcond=None)
    report["decay_slope"] = float(coef[1])
    om, wins = cluster_windows(poly.roots)
    worst = 0.0
    dpoly = np.polynomial.polynomial.Polynomial(poly.coefficients()).deriv()
    for w, (zl, zr) in zip(om, wins):
        grid = np.linspace(zl, zr, 201)
        eps0 = np.abs(dpoly(grid)).min()
        inside = eigs[(eigs >= zl) & (eigs <= zr)]
        if inside.size == 0 or eps0 == 0.0:
            continue
        bound = np.abs(poly(inside)) / eps0
        dist = np.abs(inside - w)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(bound > 0, dist / bound, np.inf)
        finite = ratio[np.isfinite(ratio)]
        if finite.size:
            worst = max(worst, float(finite.max()))
    report["distance_ratio_max"] = worst
    report["distance_bound_ok"] = bool(worst <= 1.0 + 1e-9)
    return report
