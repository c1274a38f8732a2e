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
on grid data; each node's stencil matrix spans only the grid columns
it touches.  The stencil window is centred on the grid interval that
holds its target, so it is mirror symmetric and the operators commute
with the reflections of the surface.
One pass over the node blocks serves the double and single layer.
On a surface symmetric about the z axis only the n meridian rows are
assembled; the operators are block circulant in longitude there, so
rotations give the other rows, and the spectrum splits into one
Hermitian block per Fourier mode (fourier_blocks).

Downstream utilities: single layer symmetrization (the one route from
K and S to a real spectrum, one block at a time), cluster counting
functions, power-law fits of counting data, and polynomial compactness
diagnostics.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .elasticity import kelvin_matrix, np_kernel
from .surfaces import _angles, _node_blocks, axisymmetric, c_chart


# Blended polar patch: radii are multiples of the local mesh size
# h = sqrt(node weight), capped at a fraction of the chart radius.  Up to
# n = 64 the cap binds at every node, so the patch keeps a fixed size and
# the cutoff stays smooth on the scale the rule resolves; an h-scaled patch
# stalls the far field at first order.  From n = 96 the multiples bind by
# the poles (sphere: 384 of 18,432 nodes; n = 128: 2,048 of 32,768), where
# patches shrink with h.  The polar rule grows with the patch-to-mesh ratio.
_PATCH_INNER = 24.0
_PATCH_OUTER = 48.0
_PATCH_CAP = 0.8
# points per direction of the tensor interpolation stencil
_INTERP_ORDER = 8
# counting windows stop this fraction of the root gap short of the
# midpoint between roots; each holds a geometric grid of _N_TAU taus from
# _TAU_FLOOR x gap up to the window half width
_GUARD = 0.05
_N_TAU = 24
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
# largest accepted deviation of an operator from its rotated meridian
# rows, over its largest entry (a dense assembly reads up to 3e-12)
_CIRCULANT_TOL = 1e-10
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

    Tensor barycentric Lagrange on the _INTERP_ORDER extended latitudes
    and longitudes centred on the grid interval that holds the target,
    so a target's mirror image gets the mirror image of its window;
    latitude weights come from the grid's window table, and longitude
    weights from the one target phi, which grid.node turns into phi + pi
    on reflected rows.  Returns integer node indices and weights of shape
    (npts, _INTERP_ORDER**2).
    """
    p = _INTERP_ORDER
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    lo = np.searchsorted(grid.ext_t, thetas) - p // 2
    lo = np.clip(lo, 0, len(grid.ext_t) - p)
    win = lo[:, None] + np.arange(p)[None, :]
    wt = _barycentric(grid.bary_t[lo], thetas[:, None] - grid.ext_t[win])
    dphi = 2.0 * math.pi / grid.n_phi
    cols = np.floor(phis / dphi).astype(int)[:, None] + (np.arange(p) - p // 2 + 1)
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


def _touched_product(idx, wgt, values, n_nodes):
    """(cols, product): the columns the stencils touch, and rows cols of
    _interp_matrix(idx, wgt, n_nodes).T @ values, whose other rows are 0.
    The matrix is built over cols only, and the product is the same bits."""
    hits = np.bincount(idx.ravel(), minlength=n_nodes)
    cols = np.flatnonzero(hits)
    local = np.cumsum(hits > 0) - 1
    return cols, _interp_matrix(local[idx], wgt, cols.size).T @ values


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


def _assemble(surface, quad, kernels, targets):
    """Nystrom rows of kernel(x, y, nu_y) -> (..., 3, 3) at the target
    nodes, one (3 targets, 3 nodes) matrix per kernel, filled one block
    of targets at a time.

    All target charts come from one array call.  Per block, one height
    solve gives every patch point's geometry (each point in its own
    node's chart), one stencil call interpolates all of them, and each
    kernel is evaluated once on the far field (block x nodes) and once
    on the patch points.  The near field reaches the grid through each
    node's interpolation matrix over the columns its stencils touch
    (_touched_product), built one node at a time so that a block holds
    O(points x touched columns) memory, not O(points x nodes), and
    shared by the kernels.
    """
    grid = _GridInfo(quad)
    n_nodes = quad.size
    mats = [np.zeros((3 * len(targets), 3 * n_nodes)) for _ in kernels]
    pts, nrms, wts, prm = quad.points, quad.normals, quad.weights, quad.params[targets]
    charts = c_chart(surface, prm[:, 0], prm[:, 1])
    h = np.sqrt(wts[targets])
    r2 = np.minimum(_PATCH_OUTER * h, _PATCH_CAP * charts.radius)
    r1 = np.minimum(_PATCH_INNER * h, 0.5 * r2)
    n_radial = np.maximum(10, np.ceil(1.6 * r2 / h).astype(int) + 2)
    n_angular = np.maximum(16, 2 * np.ceil(2.1 * r2 / h).astype(int))
    counts = 2 * n_radial * n_angular
    bounds = _node_blocks(counts)
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        blk = slice(b0, b1)
        nodes = targets[blk]
        ends = np.cumsum(counts[blk])  # the block's points are node-major
        # far field: every other node, the plain rule less the cutoff
        d3 = pts[None, :, :] - pts[nodes, None, :]
        dist = np.linalg.norm(d3, axis=-1)
        wj = np.hypot(
            np.einsum("bjk,bk->bj", d3, charts.e1[blk]),
            np.einsum("bjk,bk->bj", d3, charts.e2[blk]),
        )
        near = (dist < 1.5 * r2[blk, None]) & (dist > 0.0)
        factors = wts * np.where(
            near, 1.0 - _smoothstep(wj, r1[blk, None], r2[blk, None]), 1.0
        )
        row, col = np.nonzero(np.arange(n_nodes)[None, :] != nodes[:, None])
        # near field: the block's patch points, each in its node's chart
        rules = [_patch_points(r1[i], r2[i], n_radial[i], n_angular[i]) for i in range(b0, b1)]
        w12, wr, chi = (np.concatenate(parts) for parts in zip(*rules))
        owner = np.repeat(np.arange(b0, b1), counts[blk])
        q, nu, area = charts[owner].geometry(w12)
        idx, wgt = _batch_stencil(grid, *_angles(q, np.linalg.norm(q, axis=1)))
        qw = (wr * chi * area)[:, None, None]
        contrib = np.concatenate(
            [(qw * kernel(pts[targets[owner]], q, nu)).reshape(-1, 9) for kernel in kernels],
            axis=1,
        )
        patch_part = np.zeros((len(nodes), n_nodes, contrib.shape[1]))
        for j, end in enumerate(ends):
            rows = slice(end - counts[b0 + j], end)
            cols, part = _touched_product(idx[rows], wgt[rows], contrib[rows], n_nodes)
            patch_part[j, cols] = part
        for k, (mat, kernel) in enumerate(zip(mats, kernels)):
            block = np.zeros((len(nodes), n_nodes, 3, 3))
            block[row, col] = kernel(pts[nodes[row]], pts[col], nrms[col])
            block *= factors[:, :, None, None]
            block += patch_part[:, :, 9 * k : 9 * k + 9].reshape(len(nodes), n_nodes, 3, 3)
            mat[3 * b0 : 3 * b1, :] = np.transpose(block, (0, 2, 1, 3)).reshape(3 * len(nodes), -1)
    return mats


def target_nodes(surface, quad):
    """Nodes whose operator rows are assembled: on a surface symmetric
    about the z axis (surfaces.axisymmetric) the n meridian nodes, at
    phi = 0.0 exactly, from which rotation gives every other row; else all."""
    if not axisymmetric(surface):
        return np.arange(quad.size)
    return np.flatnonzero(quad.params[:, 1] == 0.0)


def _rotations(n_phi):
    """Rotations R_l about the z axis by the rule's longitudes 2 pi l / n_phi."""
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    c, s, zero, one = np.cos(phi), np.sin(phi), np.zeros(n_phi), np.ones(n_phi)
    return np.stack([c, -s, zero, s, c, zero, zero, zero, one], axis=-1).reshape(-1, 3, 3)


def _longitudes(rows):
    """Rows (n_lat, 3, 3N) at each longitude j of a rotation-equivariant
    matrix from its meridian rows: M_(i,j),(i',j') = R_j M_(i,0),(i',j'-j) R_j^T."""
    n_lat = len(rows) // 3
    m = rows.reshape(n_lat, 3, n_lat, -1, 3)
    for j, r in enumerate(_rotations(m.shape[3])):
        yield r @ (np.roll(m, j, axis=3) @ r.T).reshape(n_lat, 3, -1)


def expand_meridian(rows):
    """The full (3N, 3N) matrix, node-major, of a rotation-equivariant
    operator from its meridian rows (3 n_lat, 3N)."""
    full = np.empty((len(rows) // 3, rows.shape[1] // len(rows), 3, rows.shape[1]))
    for j, part in enumerate(_longitudes(rows)):
        full[:, j] = part
    return full.reshape(rows.shape[1], -1)


def fourier_blocks(rows):
    """The n_phi Fourier blocks (3 n_lat, 3 n_lat) of a rotation-equivariant
    matrix from its meridian rows (3 n_lat, 3N): block circulant in
    longitude in cylindrical frames, it splits into one block per mode,
    whose spectra together are its spectrum and whose squared Frobenius
    norms sum to its own (Young, Hao and Martinsson, J. Comput. Phys. 2012)."""
    n_lat = len(rows) // 3
    rot = _rotations(rows.shape[1] // len(rows))
    # each source block M_(i,0),(i',l) R_l, then the transform over l
    cyl = np.einsum("icJld,lde->icJle", rows.reshape(n_lat, 3, n_lat, len(rot), 3), rot)
    return np.moveaxis(np.fft.fft(cyl, axis=3), 3, 0).reshape(len(rot), 3 * n_lat, -1)


def meridian_blocks(mat, nodes):
    """(blocks, defect): the spectrum blocks of a full matrix whose rows
    were assembled at nodes (target_nodes).  On a meridian these are its
    fourier_blocks, and the circulant defect, the largest deviation of
    mat from its rotated meridian rows over max |mat|, is a ValueError
    beyond _CIRCULANT_TOL.  When nodes are every node (a general
    surface), mat itself is the one block, a view, and the defect None."""
    n_lat = len(nodes)
    if 3 * n_lat == len(mat):
        return mat[None], None
    rows = mat.reshape(-1, 3, mat.shape[1])[nodes].reshape(3 * n_lat, -1)
    by_lon = mat.reshape(n_lat, -1, 3, mat.shape[1])
    worst = max(np.abs(by_lon[:, j] - part).max() for j, part in enumerate(_longitudes(rows)))
    defect = worst / max(np.abs(mat).max(), 1e-300)
    if not defect <= _CIRCULANT_TOL:
        raise ValueError("not rotation-equivariant about the z axis: circulant defect %.3e "
                         "of max |M| exceeds %.0e" % (defect, _CIRCULANT_TOL))
    return fourier_blocks(rows), defect


def assemble_operators(surface, params, quad):
    """Dense Nystrom matrices (K, S) of the double and single layer
    operators from one pass over the target nodes.

    K pairs the density against the transposed traction-of-Kelvin
    matrix, under which rigid motions are 1/2-eigenfunctions.  S is
    normalized so its flat-boundary symbol is single_layer_symbol
    (negative definite); it is returned as assembled, and symmetrize
    averages it in the quadrature frame.  On a surface symmetric about
    the z axis only the meridian rows are assembled (target_nodes), and
    expand_meridian rotates them into the full matrices.
    """
    def double_layer(x, y, nu):
        return np.swapaxes(np_kernel(params, x, y, nu), -1, -2)

    def single_layer(x, y, nu):
        return -0.5 * kelvin_matrix(params, x, y)

    targets = target_nodes(surface, quad)
    mats = _assemble(surface, quad, (double_layer, single_layer), targets)
    return mats if len(targets) == quad.size else [expand_meridian(m) for m in mats]


def _adjoint(x):
    return np.swapaxes(x, -1, -2).conj()


def symmetrize(k_mat, s_mat, weights):
    """Similarity transform to a symmetric matrix via the single layer.

    k_mat and s_mat are stacks (blocks, 3m, 3m) from meridian_blocks,
    each block on m nodes; transposes are adjoints.
    Both are first conjugated by the square roots of the
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

    Eigenvalues of P below _P_FLOOR x max (over all blocks) are clipped
    to that level before taking square roots: on refinement the
    smallest discrete single layer eigenvalues sit at the resolution
    edge and may dip slightly negative.  Clipping touches only those
    unresolved modes; the count is reported, not hidden.  P with
    eigenvalues below -_P_INDEFINITE x max is rejected as genuinely
    indefinite.

    info holds plemelj_residual |K P - P K^T| / (|K| |P|), measured as
    |B L - L B^T| / (|K| |L|) (Frobenius norms are invariant under V),
    the symmetry_defect of a before averaging, clipped_modes
    and p_min_ratio (min/max eigenvalue of P).  Norms run over all
    blocks, so by Parseval Fourier blocks report the full matrix's.
    Blocks go one at a time, a pass of P's eigenpairs for the clip level
    and then one transform each, so besides its inputs the call holds
    about two stacks, the eigenvectors and the output.
    """
    k_mat, s_mat = np.asarray(k_mat), np.asarray(s_mat)
    sw = np.repeat(np.sqrt(np.asarray(weights, dtype=float)), 3)
    if sw.size != k_mat.shape[-1]:
        raise ValueError("weights do not match matrix size")

    def framed(stack):  # its blocks in the sqrt-weight frame, one at a time
        return (sw[:, None] * m / sw for m in stack)

    pairs = [np.linalg.eigh(-0.5 * (s + _adjoint(s))) for s in framed(s_mat)]
    vals = np.stack([v for v, _ in pairs])
    vmax = vals.max()
    if vmax <= 0.0 or vals.min() < -_P_INDEFINITE * vmax:
        raise ValueError(
            "-S is not positive definite (eigenvalue range %.3e .. %.3e); "
            "refine the grid" % (vals.min(), vmax)
        )
    out = np.empty(k_mat.shape, np.result_type(k_mat, s_mat, sw))
    norms = np.empty((len(pairs), 4))  # |k|, |B L - L B^T|, |a|, |a - a^T| per block
    for i, (k, (v, vecs)) in enumerate(zip(framed(k_mat), pairs)):
        root = np.sqrt(np.maximum(v, _P_FLOOR * vmax))[None, :]
        b = _adjoint(vecs) @ k @ vecs
        a = b * root / root.T
        commutator = b * v[None, :] - v[:, None] * _adjoint(b)
        norms[i] = [np.linalg.norm(x) for x in (k, commutator, a, a - _adjoint(a))]
        out[i] = 0.5 * (a + _adjoint(a))
    k_norm, plemelj, a_norm, defect = np.linalg.norm(norms, axis=0)
    return out, {
        "symmetry_defect": defect / max(a_norm, 1e-30),
        "plemelj_residual": plemelj / max(k_norm * np.linalg.norm(vals), 1e-30),
        "clipped_modes": int(np.sum(vals < _P_FLOOR * vmax)),
        "p_min_ratio": float(vals.min() / vmax),
    }


def cluster_windows(roots):
    """Counting windows (zeta_minus, zeta_plus) around each root.

    Edges sit at midpoints between consecutive roots, pulled inward by
    _GUARD x gap; extremal sides mirror the interior half width.
    """
    om = np.sort(np.asarray(roots, dtype=float))
    if om.size < 1:
        raise ValueError("no roots")
    gaps = np.diff(om)
    wins = []
    for i, w in enumerate(om):
        left_gap = gaps[i - 1] if i > 0 else gaps[0] if gaps.size else 1.0
        right_gap = gaps[i] if i < gaps.size else gaps[-1] if gaps.size else 1.0
        half_l = (0.5 - _GUARD) * left_gap
        half_r = (0.5 - _GUARD) * right_gap
        wins.append((w - half_l, w + half_r))
    return om, wins


def cluster_and_count(eigenvalues, poly):
    """Two-sided counting functions near each root of the essential
    spectrum, a SpectralPolynomial poly.

    Returns a list of records {root, tau, n_plus, n_minus} with tau on
    a geometric grid of _N_TAU points from _TAU_FLOOR x gap up to the
    window half width.
    n_plus(tau) counts eigenvalues in (root + tau, zeta_plus], n_minus
    in [zeta_minus, root - tau).
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    om, wins = cluster_windows(poly.roots)
    out = []
    for w, (zl, zr) in zip(om, wins):
        width = min(w - zl, zr - w)
        taus = np.geomspace(_TAU_FLOOR * width / (0.5 - _GUARD), width, _N_TAU)
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
    samples spanning _FIT_MIN_DECADES in tau, and fits the smallest-tau
    half of the data (the largest counts, where the asymptotic law
    dominates); samples with equal counts are chosen by tau too.
    residual is the max |log n - log fit| over the points used.
    """
    tau = np.asarray(tau, dtype=float)
    counts = np.asarray(counts, dtype=float)
    keep = counts >= 1.0
    tau, counts = tau[keep], counts[keep]
    if tau.size < _FIT_MIN_POINTS:
        raise ValueError("too few nonzero counting samples: %d" % tau.size)
    if math.log10(tau.max() / tau.min()) < _FIT_MIN_DECADES:
        raise ValueError("counting samples span less than the required decades")
    m = max(_FIT_MIN_POINTS // 2, tau.size // 2)
    sel = np.sort(np.argsort(tau, kind="stable")[:m])
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
