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
The target nodes are taken in blocks whose patches fit a fixed point
budget.  All node charts come from one array call (c_chart is array
native); per block, one height solve gives the points, normals and area
factors of every patch point in its own node's chart
(CCoordinateChart.geometry, shared with symbol extraction), the same
path on every surface kind.  The near-field density is coupled back to
grid values through a local tensor barycentric interpolation stencil
(latitude weights from a per-grid window table, pole reflection from
its node table), applied in transpose so the result is a matrix acting
on grid data.
One pass over the node blocks serves the double and single layer.

Downstream utilities: single layer symmetrization (the one route from
K and S to a real spectrum), cluster counting functions, power-law fits
of counting data, and polynomial compactness diagnostics.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .elasticity import kelvin_matrix, np_kernel
from .surfaces import _angles, _node_blocks, c_chart


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
# symmetrize: eigenvalues of P = -sym(S) are clipped at this fraction of
# the largest, and P is rejected below minus the second fraction of it
_P_FLOOR = 1e-3
_P_INDEFINITE = 1e-2
# compactness_check: central index range (fractions of the count) of the
# decay fit
_DECAY_RANGE = (0.1, 0.5)


def _smoothstep(s, r1, r2):
    """C^2 cutoff: 1 below r1, 0 above r2, quintic blend between."""
    s = np.asarray(s, dtype=float)
    t = np.clip((s - r1) / (r2 - r1), 0.0, 1.0)
    out = 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t)
    return out if out.ndim else float(out)


class _GridInfo:
    """Latitude/longitude structure behind a product surface rule, with
    the extended latitude table the interpolation stencil reads.

    Latitudes run in ascending theta, extended past each pole by up to
    _INTERP_ORDER reflected rows (theta -> -theta or 2 pi - theta, phi +
    pi), which represent the same smooth function across the pole; a
    grid has only n rows to reflect.  node[r, j] is the grid node behind
    extended row r at longitude j: on 2n equispaced longitudes phi + pi
    is n nodes on, so a reflected row reads its grid row there.  For
    every window of _INTERP_ORDER consecutive extended latitudes, bary_t
    holds its barycentric weights 1 / prod_(l != k) (t_k - t_l).
    """

    def __init__(self, quad):
        n2 = quad.size
        n = round(math.sqrt(n2 / 2.0))
        if 2 * n * n != n2:
            raise ValueError("quadrature is not an n x 2n product rule")
        self.n_lat = n
        self.n_phi = 2 * n
        thetas = quad.params[:: self.n_phi, 0]
        if not np.all(np.diff(thetas) < 0):
            raise ValueError("latitudes not monotone in the expected row order")
        p = _INTERP_ORDER
        ts = thetas[::-1]
        r = min(p, n)
        self.ext_t = np.concatenate([-ts[:r][::-1], ts, 2.0 * math.pi - ts[-r:][::-1]])
        asc = np.arange(n2).reshape(n, self.n_phi)[::-1]
        flip = np.roll(asc, -n, axis=1)  # longitude j reads j + n
        self.node = np.concatenate([flip[:r][::-1], asc, flip[-r:][::-1]])
        tn = self.ext_t[np.arange(len(self.ext_t) - p + 1)[:, None] + np.arange(p)]
        diff = tn[:, :, None] - tn[:, None, :]
        np.einsum("mii->mi", diff)[...] = 1.0
        self.bary_t = 1.0 / diff.prod(axis=2)


def _barycentric(w, d):
    """Barycentric Lagrange weights over the last axis from node weights
    w and target offsets d; a target within 1e-14 of a node takes it."""
    hit = np.abs(d) < 1e-14
    out = w / np.where(hit, 1.0, d)
    return np.where(
        hit.any(axis=-1, keepdims=True), hit.astype(float), out / out.sum(axis=-1, keepdims=True)
    )


def _batch_stencil(grid, thetas, phis):
    """Nodes and weights interpolating grid data at many (theta, phi).

    Tensor barycentric Lagrange on the _INTERP_ORDER nearest extended
    latitudes and longitudes; latitude weights come from the grid's
    window table, and longitude weights from the one target phi, which
    grid.node turns into phi + pi on reflected rows.  Returns integer
    node indices and weights of shape (npts, _INTERP_ORDER**2).
    """
    p = _INTERP_ORDER
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    lo = np.searchsorted(grid.ext_t, thetas) - p // 2
    lo = np.clip(lo, 0, len(grid.ext_t) - p)
    win = lo[:, None] + np.arange(p)[None, :]
    wt = _barycentric(grid.bary_t[lo], thetas[:, None] - grid.ext_t[win])
    dphi = 2.0 * math.pi / grid.n_phi
    cols = np.rint(phis / dphi).astype(int)[:, None] + (np.arange(p) - p // 2)
    # uniform longitude nodes: barycentric weights are alternating binomials
    ub = np.array([(-1.0) ** b * math.comb(p - 1, b) for b in range(p)])
    wp = _barycentric(ub, phis[:, None] - cols * dphi)
    idx = grid.node[win[:, :, None], np.mod(cols, grid.n_phi)[:, None, :]]
    wgt = wt[:, :, None] * wp[:, None, :]
    return idx.reshape(-1, p * p), wgt.reshape(-1, p * p)


def _interp_matrix(idx, wgt, n_nodes):
    """Dense (npts, n_nodes) stencil weights, repeated nodes summed."""
    npts = len(idx)
    flat = (np.arange(npts)[:, None] * n_nodes + idx).ravel()
    return np.bincount(flat, wgt.ravel(), npts * n_nodes).reshape(npts, n_nodes)


@functools.lru_cache(maxsize=None)
def _radial_rule(n_radial):
    """Gauss-Legendre nodes and weights on (-1, 1), built once per size."""
    rule = leggauss(n_radial)
    for a in rule:
        a.flags.writeable = False
    return rule


def _patch_points(r1, r2, n_radial, n_angular):
    """Polar patch rule in chart coordinates: points, weights, cutoff.

    Gauss-Legendre in radius on (0, r1) and (r1, r2), trapezoid in
    angle; the angular count is even so the odd part of the degree -2
    kernel cancels pointwise in radius (the principal value).
    """
    gl_x, gl_w = _radial_rule(n_radial)
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
    kernel, filled one node block at a time.

    All target charts come from one array call.  Per block, one height
    solve gives every patch point's geometry (each point in its own
    node's chart), one stencil call interpolates all of them, and each
    kernel is evaluated once on the far field (block x nodes) and once
    on the patch points.  The near field reaches the grid through each
    node's dense interpolation matrix, built one node at a time so that
    a block holds O(points) memory, not O(points x nodes), and shared
    by the kernels.
    """
    grid = _GridInfo(quad)
    n_nodes = quad.size
    mats = [np.zeros((3 * n_nodes, 3 * n_nodes)) for _ in kernels]
    pts = quad.points
    nrms = quad.normals
    wts = quad.weights
    charts = c_chart(surface, quad.params[:, 0], quad.params[:, 1])
    h = np.sqrt(wts)
    r2 = np.minimum(_PATCH_OUTER * h, _PATCH_CAP * charts.radius)
    r1 = np.minimum(_PATCH_INNER * h, 0.5 * r2)
    n_radial = np.maximum(10, np.ceil(1.6 * r2 / h).astype(int) + 2)
    n_angular = np.maximum(16, 2 * np.ceil(2.1 * r2 / h).astype(int))
    counts = 2 * n_radial * n_angular
    bounds = _node_blocks(counts)
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        nodes = np.arange(b0, b1)
        ends = np.cumsum(counts[nodes])  # the block's points are node-major
        # far field: every other node, the plain rule less the cutoff
        d3 = pts[None, :, :] - pts[nodes, None, :]
        dist = np.linalg.norm(d3, axis=-1)
        wj = np.hypot(
            np.einsum("bjk,bk->bj", d3, charts.e1[nodes]),
            np.einsum("bjk,bk->bj", d3, charts.e2[nodes]),
        )
        near = (dist < 1.5 * r2[nodes, None]) & (dist > 0.0)
        factors = wts * np.where(
            near, 1.0 - _smoothstep(wj, r1[nodes, None], r2[nodes, None]), 1.0
        )
        row, col = np.nonzero(np.arange(n_nodes)[None, :] != nodes[:, None])
        # near field: the block's patch points, each in its node's chart
        rules = [_patch_points(r1[i], r2[i], n_radial[i], n_angular[i]) for i in nodes]
        w12, wr, chi = (np.concatenate(parts) for parts in zip(*rules))
        owner = np.repeat(nodes, counts[nodes])
        q, nu, area = charts[owner].geometry(w12)
        idx, wgt = _batch_stencil(grid, *_angles(q, np.linalg.norm(q, axis=1)))
        qw = (wr * chi * area)[:, None, None]
        contrib = np.concatenate(
            [(qw * kernel(pts[owner], q, nu)).reshape(-1, 9) for kernel in kernels], axis=1
        )
        patch_part = np.empty((len(nodes), n_nodes, contrib.shape[1]))
        for j, end in enumerate(ends):
            rows = slice(end - counts[b0 + j], end)
            patch_part[j] = _interp_matrix(idx[rows], wgt[rows], n_nodes).T @ contrib[rows]
        for k, (mat, kernel) in enumerate(zip(mats, kernels)):
            block = np.zeros((len(nodes), n_nodes, 3, 3))
            block[row, col] = kernel(pts[nodes[row]], pts[col], nrms[col])
            block *= factors[:, :, None, None]
            block += patch_part[:, :, 9 * k : 9 * k + 9].reshape(len(nodes), n_nodes, 3, 3)
            mat[3 * b0 : 3 * b1, :] = np.transpose(block, (0, 2, 1, 3)).reshape(3 * len(nodes), -1)
    return mats


def assemble_operators(surface, params, quad):
    """Dense Nystrom matrices (K, S) of the double and single layer
    operators from one pass over the target nodes.

    K pairs the density against the transposed traction-of-Kelvin
    matrix, under which rigid motions are 1/2-eigenfunctions.  S is
    normalized so its flat-boundary symbol is single_layer_symbol
    (negative definite); it is returned as assembled, and symmetrize
    averages it in the quadrature frame.
    """
    def double_layer(x, y, nu):
        return np.swapaxes(np_kernel(params, x, y, nu), -1, -2)

    def single_layer(x, y, nu):
        return -0.5 * kelvin_matrix(params, x, y)

    return _assemble(surface, quad, (double_layer, single_layer))


def symmetrize(k_mat, s_mat, weights):
    """Similarity transform to a symmetric matrix via the single layer.

    Both matrices are first conjugated by the square roots of the
    quadrature weights (one per node, three matrix rows each) into the
    frame where the transpose is the discrete L2 adjoint; the symmetry
    identity K S = S K^T only closes there.  Unit weights leave the
    matrices as they are.  The continuous single layer is symmetric in
    that frame, so S is averaged with its transpose there; a flat
    (S + S^T)/2 mixes rows with unequal weights and spoils
    definiteness on refinement.
    Uses P = -sym(S) = V L V^T (positive definite) and returns
    (sym(a), info) with a = L^(-1/2) B L^(1/2) and B = V^T K V: the
    matrix P^(-1/2) K P^(1/2) written in the eigenbasis of P, so two
    N^3 products serve the transform and both diagnostics.  The
    similarity preserves the spectrum of K exactly before the final
    averaging.

    Eigenvalues of P below _P_FLOOR x max are clipped to that level
    before taking square roots: on refinement the smallest discrete
    single layer eigenvalues sit at the resolution edge and may dip
    slightly negative.  Clipping touches only those unresolved modes;
    the count is reported, not hidden.  P with eigenvalues below
    -_P_INDEFINITE x max is rejected as genuinely indefinite.

    info holds plemelj_residual |K P - P K^T| / (|K| |P|), measured as
    |B L - L B^T| / (|K| |L|) (Frobenius norms are invariant under V),
    the symmetry_defect of a before averaging, clipped_modes
    and p_min_ratio (min/max eigenvalue of P).
    """
    sw = np.repeat(np.sqrt(np.asarray(weights, dtype=float)), 3)
    if sw.size != np.shape(k_mat)[0]:
        raise ValueError("weights do not match matrix size")
    k = sw[:, None] * np.asarray(k_mat, dtype=float) / sw[None, :]
    s = sw[:, None] * np.asarray(s_mat, dtype=float) / sw[None, :]
    vals, vecs = np.linalg.eigh(-0.5 * (s + s.T))
    vmax = vals.max()
    if vmax <= 0.0 or vals.min() < -_P_INDEFINITE * vmax:
        raise ValueError(
            "-S is not positive definite (eigenvalue range %.3e .. %.3e); "
            "refine the grid" % (vals.min(), vmax)
        )
    clipped = int(np.sum(vals < _P_FLOOR * vmax))
    root = np.sqrt(np.maximum(vals, _P_FLOOR * vmax))
    b = vecs.T @ k @ vecs
    plemelj = np.linalg.norm(b * vals - vals[:, None] * b.T) / max(
        np.linalg.norm(k) * np.linalg.norm(vals), 1e-30
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
    guard x gap; extremal sides mirror the interior half width.  guard
    must lie in [0, 0.5): at 0.5 a window is empty, beyond it inverted,
    and below 0 windows overlap their neighbours.
    """
    if not 0.0 <= guard < 0.5:
        raise ValueError("guard %r outside [0, 0.5)" % guard)
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


def cluster_and_count(eigenvalues, poly, n_tau=24, guard=0.05):
    """Two-sided counting functions near each root of the essential
    spectrum, a SpectralPolynomial poly.

    Returns a list of records {root, tau, n_plus, n_minus} with tau on
    a geometric grid of n_tau points, an integer of at least 2, from
    _TAU_FLOOR x gap up to the window half width.
    n_plus(tau) counts eigenvalues in (root + tau, zeta_plus], n_minus
    in [zeta_minus, root - tau).
    """
    if not (isinstance(n_tau, numbers.Integral) and n_tau >= 2):
        raise ValueError("n_tau %r is not an integer >= 2" % (n_tau,))
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    om, wins = cluster_windows(poly.roots, guard=guard)
    out = []
    for w, (zl, zr) in zip(om, wins):
        width = min(w - zl, zr - w)
        taus = np.geomspace(_TAU_FLOOR * width / (0.5 - guard), width, n_tau)
        npl = np.array([np.sum((ev > w + t) & (ev <= zr)) for t in taus])
        nmi = np.array([np.sum((ev < w - t) & (ev >= zl)) for t in taus])
        out.append({"root": float(w), "tau": taus, "n_plus": npl, "n_minus": nmi})
    return out


@dataclass(frozen=True)
class FitResult:
    """Power-law fit n(tau) ~ C tau^(-h) of counting data."""

    h: float
    c: float
    residual: float


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
    return FitResult(h=float(coef[1]), c=float(math.exp(coef[0])), residual=float(resid))


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


def compactness_check(eigenvalues, poly):
    """Diagnostics that p(K) behaves like a compact operator power, for
    the real eigenvalues of K and the essential spectrum polynomial p,
    a SpectralPolynomial poly.

    Checks (i) the decay rate of sorted |p(lambda_j)| ~ j^(-1/2) over
    the _DECAY_RANGE index range; (ii) the distance bound
    dist(lambda, roots) <= |p(lambda)| / min |p'| over each cluster
    window.  Returns a report dict.
    """
    eigs = np.asarray(eigenvalues, dtype=float)
    mags = np.sort(np.abs(poly(eigs)))[::-1]
    mags = mags[mags > 0]
    m = mags.size
    lo, hi = max(1, int(_DECAY_RANGE[0] * m)), max(2, int(_DECAY_RANGE[1] * m))
    js = np.arange(lo, hi)
    lj, lm = np.log(js.astype(float)), np.log(mags[lo:hi])
    a = np.column_stack([np.ones_like(lj), lj])
    coef, *_ = np.linalg.lstsq(a, lm, rcond=None)
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
    return {
        "decay_slope": float(coef[1]),
        "distance_ratio_max": worst,
        "distance_bound_ok": bool(worst <= 1.0 + 1e-9),
    }
