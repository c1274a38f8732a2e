"""Discretization and spectral counting tests.

Assembly accuracy is pinned by the exact unit sphere table: rigid
motions (translations and rotations) are 1/2-eigenfunctions of the
double layer for any material, the dilation field x has eigenvalue
-1/18 at lambda = mu = 1, and the symmetrized matrix reproduces the
leading exact levels with measured margins.  On an ellipsoid and a
radial graph the translation residual max |K r - r/2| falls with the
grid size.  Counting, fitting and
compactness utilities are exercised on synthetic sequences with known
exponents before they see operator data.
"""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from npspec.elasticity import (
    LameParams,
    essential_spectrum,
    kelvin_matrix,
    np_kernel,
    sphere_exact_eigenvalues,
)
from npspec import surfaces
from npspec.spectral import (
    _GridInfo,
    _assemble,
    _batch_stencil,
    _interp_matrix,
    _patch_points,
    _smoothstep,
    _touched_product,
    assemble_operators,
    certified_multiplicities,
    cluster_and_count,
    cluster_windows,
    compactness_check,
    fit_power_law,
    fourier_blocks,
    level_multiplicities,
    meridian_blocks,
    prune_counting_samples,
    symmetrize,
    target_nodes,
)
from npspec.surfaces import c_chart, make_surface, surface_quadrature

P11 = LameParams(1.0, 1.0)
SPHERE = make_surface("sphere", radius=1.0)
DENT = make_surface("radial_graph", harmonics=[[2, 0, -0.6]])
ELLIPSOID = make_surface("ellipsoid", a=1.0, b=1.2, c=0.8)
KK = P11.kk
ROOTS = essential_spectrum(P11)  # roots (-KK, 0, KK)


def _unit_weights(k):
    """Unit quadrature weights for a matrix of 3 x 3 node blocks."""
    return np.ones(len(k) // 3)


def _pipeline(n):
    quad = surface_quadrature(SPHERE, n)
    k_mat, s_mat = assemble_operators(SPHERE, P11, quad)
    sym, info = symmetrize(k_mat[None], s_mat[None], quad.weights)
    sym = sym[0]
    ev = np.linalg.eigvalsh(sym)
    return SimpleNamespace(quad=quad, k=k_mat, s=s_mat, a=sym, info=info, ev=ev)


@pytest.fixture(scope="module")
def sphere8():
    return _pipeline(8)


@pytest.fixture(scope="module")
def sphere16():
    return _pipeline(16)


class TestSmoothstep:
    def test_plateaus(self):
        assert _smoothstep(0.5, 1.0, 2.0) == 1.0
        assert _smoothstep(1.0, 1.0, 2.0) == 1.0
        assert _smoothstep(2.0, 1.0, 2.0) == 0.0
        assert _smoothstep(7.0, 1.0, 2.0) == 0.0

    def test_midpoint(self):
        assert abs(_smoothstep(1.5, 1.0, 2.0) - 0.5) < 1e-15

    def test_monotone_decreasing(self):
        s = np.linspace(0.5, 2.5, 401)
        v = _smoothstep(s, 1.0, 2.0)
        assert np.all(np.diff(v) <= 0.0)

    def test_scalar_and_array_forms(self):
        assert isinstance(_smoothstep(1.3, 1.0, 2.0), float)
        v = _smoothstep(np.array([0.0, 1.5, 3.0]), 1.0, 2.0)
        assert v.shape == (3,)


class TestGridInfo:
    def test_product_structure(self):
        quad = surface_quadrature(SPHERE, 6)
        grid = _GridInfo(quad)
        assert grid.n_lat == 6 and grid.n_phi == 12

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_node_table_reflects_rows_across_the_poles(self, n):
        # extended row r at longitude j reads its grid row at j, or at
        # j + n (phi + pi) when theta was reflected across a pole
        quad = surface_quadrature(SPHERE, n)
        grid = _GridInfo(quad)
        thetas = quad.params[:: 2 * n, 0]
        assert grid.node.shape == (len(grid.ext_t), 2 * n)
        for r, t in enumerate(grid.ext_t):
            reflected = not 0.0 < t < math.pi
            lat = abs(t) if t < math.pi else 2.0 * math.pi - t
            row = int(np.argmin(np.abs(thetas - lat)))
            assert abs(thetas[row] - lat) < 1e-14
            want = row * 2 * n + (np.arange(2 * n) + n * reflected) % (2 * n)
            assert np.array_equal(grid.node[r], want)


class TestInterpolationStencil:
    def test_exact_at_grid_nodes(self):
        quad = surface_quadrature(SPHERE, 10)
        grid = _GridInfo(quad)
        nodes = [0, 57, quad.size - 3]
        th, ph = quad.params[nodes].T
        idx, wgt = _batch_stencil(grid, th, ph)
        for i, row_idx, row_wgt in zip(nodes, idx, wgt):
            vals = dict(zip(row_idx.tolist(), row_wgt.tolist()))
            assert abs(vals.get(i, 0.0) - 1.0) < 1e-12
            assert abs(np.abs(row_wgt).sum() - 1.0) < 1e-12

    def test_smooth_function_accuracy(self):
        # order-8 tensor stencil on the n=12 grid: measured error ~1e-5
        quad = surface_quadrature(SPHERE, 12)
        grid = _GridInfo(quad)

        def f(th, ph):
            x = np.sin(th) * np.cos(ph)
            z = np.cos(th)
            return np.exp(0.7 * x) * np.sin(1.3 * z + 0.2)

        fv = f(quad.params[:, 0], quad.params[:, 1])
        rng = np.random.default_rng(5)
        ths = rng.uniform(0.2, np.pi - 0.2, 40)
        phs = rng.uniform(0.0, 2.0 * np.pi, 40)
        idx, wgt = _batch_stencil(grid, ths, phs)
        got = (fv[idx] * wgt).sum(axis=1)
        assert np.abs(got - f(ths, phs)).max() < 5e-4

    def test_pole_band_reflection(self):
        # windows crossing theta = 0 use reflected rows
        quad = surface_quadrature(SPHERE, 12)
        grid = _GridInfo(quad)

        def f(th, ph):
            return np.cos(th) + 0.3 * np.sin(th) * np.cos(ph)

        fv = f(quad.params[:, 0], quad.params[:, 1])
        ths = np.array([0.01, 0.04, np.pi - 0.02])
        phs = np.array([0.3, 4.0, 1.1])
        idx, wgt = _batch_stencil(grid, ths, phs)
        got = (fv[idx] * wgt).sum(axis=1)
        assert np.abs(got - f(ths, phs)).max() < 5e-4

    @pytest.mark.parametrize("n, tol", [(4, 1e-1), (6, 1.5e-2)])
    def test_grid_with_fewer_latitudes_than_order(self, n, tol):
        # the order-8 window then reflects every latitude at each pole;
        # measured errors 6.4e-2 (n=4) and 7.5e-3 (n=6)
        quad = surface_quadrature(SPHERE, n)
        grid = _GridInfo(quad)

        def f(th, ph):
            x = np.sin(th) * np.cos(ph)
            return np.exp(0.7 * x) * np.sin(1.3 * np.cos(th) + 0.2)

        fv = f(quad.params[:, 0], quad.params[:, 1])
        rng = np.random.default_rng(5)
        ths = rng.uniform(0.0, np.pi, 200)
        phs = rng.uniform(0.0, 2.0 * np.pi, 200)
        idx, wgt = _batch_stencil(grid, ths, phs)
        assert idx.min() >= 0 and idx.max() < quad.size
        got = (fv[idx] * wgt).sum(axis=1)
        assert np.abs(got - f(ths, phs)).max() < tol


def _lagrange(x, nodes):
    """Lagrange basis values at x in product form."""
    return np.array([
        np.prod([(x - b) / (a - b) for b in nodes if b != a]) for a in nodes
    ])


def _reference_row(quad, theta, phi, p=8):
    """Dense interpolation row at (theta, phi), built point by point: the
    p consecutive extended latitudes around theta (rows reflected across
    a pole read phi + pi) and the p longitudes around the interval that
    holds each row's target."""
    n = quad.n
    asc = quad.params[:: 2 * n, 0][::-1]
    r = min(p, n)
    ext = (
        [(-asc[a], n - 1 - a, math.pi) for a in range(r - 1, -1, -1)]
        + [(asc[a], n - 1 - a, 0.0) for a in range(n)]
        + [(2 * math.pi - asc[a], n - 1 - a, math.pi) for a in range(n - 1, n - r - 1, -1)]
    )
    lo = min(max(int(np.searchsorted([e[0] for e in ext], theta)) - p // 2, 0), len(ext) - p)
    window = ext[lo : lo + p]
    row = np.zeros(quad.size)
    dphi = math.pi / n
    for lat_w, (_, lat, shift) in zip(_lagrange(theta, [e[0] for e in window]), window):
        target = phi + shift
        cols = math.floor(target / dphi) + np.arange(p) - p // 2 + 1
        for col, lon_w in zip(cols, _lagrange(target, list(cols * dphi))):
            row[lat * 2 * n + col % (2 * n)] += lat_w * lon_w
    return row


class TestTableStencil:
    @pytest.mark.parametrize("n", [4, 6, 7, 10])
    def test_matches_pointwise_lagrange_near_poles(self, n):
        quad = surface_quadrature(SPHERE, n)
        rng = np.random.default_rng(n)
        ths = np.concatenate([
            [0.0, math.pi], rng.uniform(0.0, 0.4, 15), rng.uniform(math.pi - 0.4, math.pi, 15)
        ])
        phs = rng.uniform(-math.pi, math.pi, len(ths))
        idx, wgt = _batch_stencil(_GridInfo(quad), ths, phs)
        got = _interp_matrix(idx, wgt, quad.size)
        for k in range(len(ths)):
            ref = _reference_row(quad, ths[k], phs[k])
            assert np.abs(got[k] - ref).max() < 1e-14 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("n", [4, 6, 7, 10])
    def test_grid_values_reproduced_exactly(self, n):
        quad = surface_quadrature(SPHERE, n)
        idx, wgt = _batch_stencil(_GridInfo(quad), *quad.params.T)
        assert np.array_equal(_interp_matrix(idx, wgt, quad.size), np.eye(quad.size))


class TestInterpolationMatrix:
    @pytest.mark.parametrize("n", [4, 10])
    def test_product_matches_scatter(self, n):
        # one pole node's patch stencil; at n=4 the reflected and direct
        # longitude windows share nodes, so repeated weights must sum
        quad = surface_quadrature(SPHERE, n)
        grid = _GridInfo(quad)
        chart = c_chart(SPHERE, *quad.params[0])
        r2 = 0.8 * chart.radius
        w12, _, _ = _patch_points(0.5 * r2, r2, 10, 16)
        q, _, _ = chart.geometry(w12)
        tq = np.arccos(np.clip(q[:, 2], -1.0, 1.0))
        idx, wgt = _batch_stencil(grid, tq, np.arctan2(q[:, 1], q[:, 0]))
        repeats = max(idx.shape[1] - np.unique(row).size for row in idx)
        assert (repeats > 0) == (n == 4)
        contrib = np.random.default_rng(2).normal(size=(len(q), 3, 3))
        oracle = np.zeros((quad.size, 3, 3))
        np.add.at(
            oracle,
            idx.ravel(),
            (wgt[:, :, None, None] * contrib[:, None, :, :]).reshape(-1, 3, 3),
        )
        interp = _interp_matrix(idx, wgt, quad.size)
        got = (interp.T @ contrib.reshape(len(q), 9)).reshape(-1, 3, 3)
        assert np.abs(got - oracle).max() < 1e-15 * np.abs(oracle).max()

    @pytest.mark.parametrize("surface, n", [(SPHERE, 10), (DENT, 16)], ids=["sphere10", "dent16"])
    @pytest.mark.parametrize("row", ["pole", "equator"])
    def test_touched_columns_give_the_full_width_product(self, surface, n, row):
        # one node's patch stencil; the product over the columns it
        # touches is the full-width product, bit for bit, and the other
        # columns of the full-width product are zero
        quad = surface_quadrature(surface, n)
        node = 0 if row == "pole" else (n // 2) * 2 * n
        chart = c_chart(surface, *quad.params[node])
        r2 = 0.8 * chart.radius
        q, _, _ = chart.geometry(_patch_points(0.5 * r2, r2, 10, 16)[0])
        idx, wgt = _batch_stencil(
            _GridInfo(quad), *surfaces._angles(q, np.linalg.norm(q, axis=1))
        )
        contrib = np.random.default_rng(n).normal(size=(len(q), 18))
        cols, got = _touched_product(idx, wgt, contrib, quad.size)
        full = _interp_matrix(idx, wgt, quad.size).T @ contrib
        assert np.array_equal(cols, np.unique(idx))
        assert np.array_equal(got, full[cols])
        assert not np.delete(full, cols, axis=0).any()


class TestFusedPass:
    @staticmethod
    def _kernels():
        def double_layer(x, y, nu):
            return np.swapaxes(np_kernel(P11, x, y, nu), -1, -2)

        def single_layer(x, y, nu):
            return -0.5 * kelvin_matrix(P11, x, y)

        return double_layer, single_layer

    @pytest.mark.parametrize(
        "surface",
        [SPHERE, make_surface("ellipsoid", a=1.0, b=1.2, c=0.8)],
        ids=["sphere", "ellipsoid"],
    )
    def test_both_kernels_equal_each_alone(self, surface):
        quad = surface_quadrature(surface, 6)
        kernels = self._kernels()
        targets = np.arange(quad.size)
        both = _assemble(surface, quad, kernels, targets)
        for mat, kernel in zip(both, kernels):
            (alone,) = _assemble(surface, quad, (kernel,), targets)
            assert np.array_equal(mat, alone)


# axisymmetric surfaces and rule sizes of the Fourier block route
FOURIER_CASES = {
    "sphere10": (SPHERE, 10),
    "dent10": (DENT, 10),
    "spheroid10": (make_surface("ellipsoid", a=1.0, b=1.0, c=0.8), 10),
    "dent16": (DENT, 16),
}


@pytest.fixture(scope="module", params=sorted(FOURIER_CASES))
def fourier_case(request):
    """One surface's operators by dense assembly of every row and by the
    meridian route, with the dense and the per-mode spectra."""
    surface, n = FOURIER_CASES[request.param]
    quad = surface_quadrature(surface, n)
    dense = _assemble(surface, quad, TestFusedPass._kernels(), np.arange(quad.size))
    a, info = symmetrize(dense[0][None], dense[1][None], quad.weights)
    expanded = assemble_operators(surface, P11, quad)
    nodes = target_nodes(surface, quad)
    (k_blocks, k_defect), (s_blocks, s_defect) = (meridian_blocks(m, nodes) for m in expanded)
    a_modes, info_modes = symmetrize(k_blocks, s_blocks, quad.weights[nodes])
    return SimpleNamespace(
        n=n, quad=quad, dense=dense, expanded=expanded, nodes=nodes, blocks=(k_blocks, s_blocks),
        defects=(k_defect, s_defect), ev=np.linalg.eigvalsh(a[0]), info=info,
        ev_modes=np.sort(np.linalg.eigvalsh(a_modes), axis=None), info_modes=info_modes,
    )


class TestFourierBlocks:
    def test_meridian_targets(self, fourier_case):
        n = fourier_case.n
        assert np.array_equal(fourier_case.nodes, 2 * n * np.arange(n))
        assert fourier_case.blocks[0].shape == (2 * n, 3 * n, 3 * n)

    def test_modes_match_dense_spectrum(self, fourier_case):
        assert fourier_case.ev_modes.shape == fourier_case.ev.shape
        assert np.abs(fourier_case.ev_modes - fourier_case.ev).max() <= 1e-12

    def test_diagnostics_match_dense(self, fourier_case):
        dense, modes = fourier_case.info, fourier_case.info_modes
        assert modes["clipped_modes"] == dense["clipped_modes"]
        for key in ("symmetry_defect", "plemelj_residual", "p_min_ratio"):
            assert modes[key] == pytest.approx(dense[key], rel=1e-12, abs=0.0)

    def test_expanded_rows_match_dense_assembly(self, fourier_case):
        for full, dense in zip(fourier_case.expanded, fourier_case.dense):
            assert np.abs(full - dense).max() <= 1e-11 * np.abs(dense).max()

    def test_blocks_keep_frobenius_norms(self, fourier_case):
        # Parseval: the unnormalized transform over 2n longitudes
        for blocks, full in zip(fourier_case.blocks, fourier_case.expanded):
            assert np.linalg.norm(blocks) == pytest.approx(np.linalg.norm(full), rel=1e-13)

    def test_dense_assembly_passes_the_equivariance_check(self, fourier_case):
        # expanded rows are equivariant to rounding; a dense assembly is
        # not (about 1e-12), but well inside the accepted defect
        assert max(fourier_case.defects) <= 1e-15
        for dense in fourier_case.dense:
            _, defect = meridian_blocks(dense, fourier_case.nodes)
            assert 0.0 < defect <= 1e-11

    def test_off_meridian_perturbation_rejected(self, fourier_case):
        k = fourier_case.expanded[0].copy()
        k[3 * (fourier_case.nodes[1] + 1) + 2, 7] += 1e-6
        with pytest.raises(ValueError, match="not rotation-equivariant .* circulant defect"):
            meridian_blocks(k, fourier_case.nodes)


@pytest.mark.parametrize(
    "surface",
    [make_surface("ellipsoid", a=1.0, b=1.2, c=0.8),
     make_surface("radial_graph", harmonics=[[2, 0, 0.3], [3, 1, 0.2]])],
    ids=["triaxial", "two-harmonic"],
)
def test_general_surfaces_assemble_every_row(surface):
    quad = surface_quadrature(surface, 6)
    nodes = target_nodes(surface, quad)
    assert np.array_equal(nodes, np.arange(quad.size))
    # the spectrum takes the whole matrix as its one block, uncopied
    k, _ = assemble_operators(surface, P11, quad)
    blocks, defect = meridian_blocks(k, nodes)
    assert blocks.dtype == np.float64 and blocks.shape == (1, 3 * quad.size, 3 * quad.size)
    assert np.shares_memory(blocks, k) and np.array_equal(blocks[0], k)
    assert defect is None


class TestNodeBlocks:
    @pytest.mark.parametrize(
        "surface",
        [SPHERE, make_surface("radial_graph", harmonics=[[2, 0, -0.3]])],
        ids=["sphere", "radial_graph"],
    )
    def test_one_node_blocks_match_default_blocks(self, surface, monkeypatch):
        quad = surface_quadrature(surface, 6)
        k_mat, s_mat = assemble_operators(surface, P11, quad)
        monkeypatch.setattr(surfaces, "_BLOCK_POINTS", 1)
        k_one, s_one = assemble_operators(surface, P11, quad)
        assert np.abs(k_one - k_mat).max() <= 1e-14 * np.abs(k_mat).max()
        assert np.abs(s_one - s_mat).max() <= 1e-14 * np.abs(s_mat).max()

    def test_blocks_fill_the_budget(self, monkeypatch):
        monkeypatch.setattr(surfaces, "_BLOCK_POINTS", 1000)
        # consecutive nodes up to the budget; a node over it is a block alone
        assert surfaces._node_blocks([300, 300, 300, 5000, 200, 100]) == [0, 3, 4, 6]
        assert surfaces._node_blocks([600, 600, 400]) == [0, 1, 3]


class TestRigidMotions:
    # max |K r - r/2| over the unit translations at n = 6, 8, 10, as
    # measured; the sphere is left out, its residual is not monotone
    LEVELS = {
        "ellipsoid": (
            make_surface("ellipsoid", a=1.0, b=1.2, c=0.8),
            (8.03e-2, 5.30e-2, 3.38e-2),
        ),
        "radial_graph": (
            make_surface("radial_graph", harmonics=[[2, 0, -0.3]]),
            (5.03e-2, 2.38e-2, 1.34e-2),
        ),
    }

    @pytest.mark.parametrize("name", sorted(LEVELS))
    def test_translation_residual_falls_with_n(self, name):
        surface, levels = self.LEVELS[name]
        res = []
        for n in (6, 8, 10):
            quad = surface_quadrature(surface, n)
            k, _ = assemble_operators(surface, P11, quad)
            r = np.tile(np.eye(3), quad.size)
            res.append(np.abs(k @ r.T - 0.5 * r.T).max())
        assert res[0] > res[1] > res[2]
        for got, level in zip(res, levels):
            assert got <= 1.1 * level


class TestKernelRow:
    """The kernels the assembly evaluates, batched over y and nu."""

    def _geometry(self):
        rng = np.random.default_rng(11)
        x = np.array([0.2, -0.4, 1.1])
        pts = rng.normal(size=(6, 3))
        nus = rng.normal(size=(6, 3))
        nus /= np.linalg.norm(nus, axis=1)[:, None]
        return x, pts, nus

    def test_double_is_transposed_np_kernel(self):
        x, pts, nus = self._geometry()
        rows = np.swapaxes(np_kernel(P11, x, pts, nus), -1, -2)
        for j in range(len(pts)):
            ref = np_kernel(P11, x, pts[j], nus[j]).T
            assert np.abs(rows[j] - ref).max() < 1e-13

    def test_single_is_scaled_kelvin(self):
        x, pts, _ = self._geometry()
        rows = -0.5 * kelvin_matrix(P11, x, pts)
        for j in range(len(pts)):
            ref = -0.5 * kelvin_matrix(P11, x, pts[j])
            assert np.abs(rows[j] - ref).max() < 1e-13

    def test_coincident_point_rejected(self):
        x, pts, nus = self._geometry()
        pts[2] = x
        with pytest.raises(ValueError):
            np_kernel(P11, x, pts, nus)
        with pytest.raises(ValueError):
            kelvin_matrix(P11, x, pts)


class TestPatchGeometry:
    def test_sphere_matches_closed_form(self):
        # the closed form the chart solve replaced: height
        # sqrt(R^2 - |w|^2) - R, normal q / |q|, area |q| / (q . n)
        for radius in (1.0, 2.5):
            surf = make_surface("sphere", radius=radius)
            chart = c_chart(surf, 1.1, 0.6)
            w12, _, _ = _patch_points(0.1 * radius, 0.3 * radius, 12, 32)
            q, nu, area = chart.geometry(w12)
            t = np.sqrt(radius**2 - np.einsum("ij,ij->i", w12, w12)) - radius
            q_ref = (
                chart.origin
                + w12[:, :1] * chart.e1
                + w12[:, 1:] * chart.e2
                + t[:, None] * chart.n
            )
            rq = np.linalg.norm(q_ref, axis=1)
            assert np.abs(q - q_ref).max() < 1e-13
            assert np.abs(nu - q_ref / rq[:, None]).max() < 1e-13
            assert np.abs(area - rq / (q_ref @ chart.n)).max() < 1e-13


class TestReflections:
    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "z"])
    def test_ellipsoid_operators_are_mirror_equivariant(self, axis):
        # a reflection R maps the product rule onto itself by a node
        # permutation s, and K and S commute with it: M_(s a, s b) =
        # R M_(a, b) R; a longitude window not symmetric under
        # phi -> -phi breaks this for x and y by 0.26 of max |K|
        quad = surface_quadrature(ELLIPSOID, 8)
        sign = np.where(np.arange(3) == axis, -1.0, 1.0)
        gap = np.linalg.norm(quad.points[:, None] - sign * quad.points[None], axis=-1)
        perm = gap.argmin(axis=0)
        assert gap[perm, np.arange(quad.size)].max() < 1e-12
        for mat, tol in zip(assemble_operators(ELLIPSOID, P11, quad), (1e-11, 1e-13)):
            m = mat.reshape(quad.size, 3, quad.size, 3)
            mirrored = sign[:, None, None] * m[perm][:, :, perm] * sign
            assert np.abs(mirrored - m).max() <= tol * np.abs(m).max()


class TestAssembly:
    def _action_err(self, bundle, u, lam):
        v = (bundle.k @ u.ravel()).reshape(-1, 3)
        w = bundle.quad.weights
        num = np.sqrt(np.sum(w * np.sum((v - lam * u) ** 2, axis=1)))
        den = np.sqrt(np.sum(w * np.sum((lam * u) ** 2, axis=1)))
        return num / den

    def test_translations_are_half_eigenfunctions(self, sphere16):
        # 512 nodes; contract asks 5% at >= 500 nodes, measured 0.5%
        for k in range(3):
            u = np.tile(np.eye(3)[k], (sphere16.quad.size, 1))
            assert self._action_err(sphere16, u, 0.5) < 2e-2

    def test_rotations_are_half_eigenfunctions(self, sphere16):
        u = np.cross(np.array([0.3, -1.0, 0.7]), sphere16.quad.points)
        assert self._action_err(sphere16, u, 0.5) < 2e-2

    def test_dilation_eigenvalue(self, sphere16):
        # x is an exact eigenfunction with eigenvalue -1/18 at lam=mu=1
        u = sphere16.quad.points.copy()
        assert self._action_err(sphere16, u, -1.0 / 18.0) < 1e-1

    def test_single_layer_weight_frame_symmetry(self, sphere8):
        # the assembled S is not symmetric in the sqrt-weight frame
        # (2.6% at n = 8); symmetrize averages it there, so averaging
        # first changes nothing but rounding
        sw = np.repeat(np.sqrt(sphere8.quad.weights), 3)
        t = sw[:, None] * sphere8.s / sw[None, :]
        assert np.linalg.norm(t - t.T) / np.linalg.norm(t) > 1e-2
        s_avg = 0.5 * (t + t.T) * sw[None, :] / sw[:, None]
        a, info = symmetrize(sphere8.k[None], s_avg[None], sphere8.quad.weights)
        ev = np.linalg.eigvalsh(a[0])
        assert np.abs(ev - sphere8.ev).max() < 1e-13
        assert info["clipped_modes"] == sphere8.info["clipped_modes"]
        assert info["p_min_ratio"] == pytest.approx(sphere8.info["p_min_ratio"], rel=1e-12)

    def test_single_layer_scaling(self):
        # kernel degree -1: S on radius R equals R times S on radius 1
        big = make_surface("sphere", radius=2.0)
        _, s1 = assemble_operators(SPHERE, P11, surface_quadrature(SPHERE, 6))
        _, s2 = assemble_operators(big, P11, surface_quadrature(big, 6))
        assert np.linalg.norm(s2 - 2.0 * s1) / np.linalg.norm(s2) < 1e-12

    def test_negative_single_layer_positive_definite(self, sphere8, sphere16):
        assert sphere8.info["p_min_ratio"] > 0.0
        assert sphere16.info["p_min_ratio"] > 0.0

    def test_node_collision_rejected(self):
        quad = surface_quadrature(SPHERE, 4)
        pts = quad.points.copy()
        pts[1] = pts[0]
        with pytest.raises(ValueError):
            assemble_operators(SPHERE, P11, dataclasses.replace(quad, points=pts))

    def test_action_self_convergence(self):
        # fixed smooth field, grid functionals drift < 2% from n to 2n
        def functionals(n):
            q = surface_quadrature(SPHERE, n)
            k, _ = assemble_operators(SPHERE, P11, q)
            p = q.points
            u = np.stack(
                [np.sin(p[:, 0] + 0.3 * p[:, 2]), np.cos(p[:, 1]), p[:, 2] ** 2],
                axis=1,
            ).ravel()
            v = (k @ u).reshape(-1, 3)
            l2 = math.sqrt(np.sum(q.weights * np.sum(v * v, axis=1)))
            phi = np.exp(-np.sum((p - np.array([0.3, -0.2, 0.9])) ** 2, axis=1))
            lin = np.sum(q.weights * phi * (v[:, 0] + v[:, 2]))
            return l2, lin

        a = functionals(12)
        b = functionals(24)
        assert abs(a[0] - b[0]) / abs(b[0]) < 2e-2
        assert abs(a[1] - b[1]) / abs(b[1]) < 2e-2


class TestSpectrum:
    def test_raw_sphere_matrix_is_rejected(self, sphere16):
        # unresolved accumulation-zone modes collide into complex pairs;
        # real spectra come from the symmetrized route
        vals = np.linalg.eigvals(sphere16.k)
        assert np.abs(vals.imag).max() > 1e-4 * np.abs(vals).max()


class TestSymmetrize:
    def test_fourier_blocks_in_bounded_memory(self):
        # blocks go one at a time, so the traced peak stays near two
        # block stacks (the eigenvectors and the output), not seven
        quad = surface_quadrature(DENT, 24)
        nodes = target_nodes(DENT, quad)
        rows = _assemble(DENT, quad, TestFusedPass._kernels(), nodes)
        k_blocks, s_blocks = (fourier_blocks(m) for m in rows)
        tracemalloc.start()
        try:
            symmetrize(k_blocks, s_blocks, quad.weights[nodes])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * k_blocks.nbytes

    def _commuting_pair(self, rng, n=42):
        # K = P^(1/2) A P^(-1/2) with A symmetric: exact Plemelj pair;
        # basis holds the eigenvectors of P in ascending eigenvalue order
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        pvals = rng.uniform(0.5, 2.0, n)
        a_sym = rng.normal(size=(n, n))
        a_sym = 0.5 * (a_sym + a_sym.T)
        p_half = (q * np.sqrt(pvals)) @ q.T
        p_ihalf = (q / np.sqrt(pvals)) @ q.T
        k = p_half @ a_sym @ p_ihalf
        p = (q * pvals) @ q.T
        return k, -p, a_sym, q[:, np.argsort(pvals)]

    @staticmethod
    def _assert_generator(a, a_sym, basis):
        # a is a_sym written in the eigenbasis of P, whose vectors are
        # fixed up to sign: equal spectra and entrywise magnitudes
        want = np.abs(basis.T @ a_sym @ basis)
        assert np.abs(np.abs(a) - want).max() < 1e-10
        assert np.abs(np.linalg.eigvalsh(a) - np.linalg.eigvalsh(a_sym)).max() < 1e-10

    def test_recovers_symmetric_generator(self):
        rng = np.random.default_rng(3)
        k, s, a_sym, basis = self._commuting_pair(rng)
        a, info = symmetrize(k[None], s[None], _unit_weights(k))
        self._assert_generator(a[0], a_sym, basis)
        assert info["symmetry_defect"] < 1e-12
        assert info["plemelj_residual"] < 1e-12
        assert info["clipped_modes"] == 0

    def test_similarity_preserves_eigenvalues(self):
        rng = np.random.default_rng(4)
        k, s, _, _ = self._commuting_pair(rng, n=27)
        a, _ = symmetrize(k[None], s[None], _unit_weights(k))
        got = np.sort(np.linalg.eigvalsh(a[0]))
        want = np.sort(np.linalg.eigvals(k).real)
        assert np.abs(got - want).max() < 1e-10

    def test_matches_explicit_similarity(self):
        # non-commuting pair: the explicit P^(-1/2) K P^(1/2), its
        # defect and |K S - S K^T| / (|K| |S|) are the oracles
        rng = np.random.default_rng(11)
        n = 30
        k = rng.normal(size=(n, n))
        g = rng.normal(size=(n, n))
        p = g @ g.T / n + 0.5 * np.eye(n)
        p = 0.5 * (p + p.T)
        a, info = symmetrize(k[None], -p[None], _unit_weights(k))
        vals, vecs = np.linalg.eigh(p)
        explicit = ((vecs / np.sqrt(vals)) @ vecs.T) @ k @ ((vecs * np.sqrt(vals)) @ vecs.T)
        want = np.linalg.eigvalsh(0.5 * (explicit + explicit.T))
        assert np.abs(np.linalg.eigvalsh(a[0]) - want).max() < 1e-12 * np.abs(want).max()
        defect = np.linalg.norm(explicit - explicit.T) / np.linalg.norm(explicit)
        assert defect > 0.1
        assert info["symmetry_defect"] == pytest.approx(defect, rel=1e-10)
        s = -p
        plemelj = np.linalg.norm(k @ s - s @ k.T) / (np.linalg.norm(k) * np.linalg.norm(s))
        assert info["plemelj_residual"] == pytest.approx(plemelj, rel=1e-10)
        assert info["clipped_modes"] == 0

    def test_weight_conjugation(self):
        # building the pair in the sqrt-weight frame and undoing the
        # conjugation on the inputs must give the same output
        rng = np.random.default_rng(9)
        k_t, s_t, a_sym, basis = self._commuting_pair(rng, n=30)
        w = rng.uniform(0.2, 3.0, 10)
        sw = np.repeat(np.sqrt(w), 3)
        k_plain = k_t / sw[:, None] * sw[None, :]
        s_plain = s_t / sw[:, None] * sw[None, :]
        a, info = symmetrize(k_plain[None], s_plain[None], w)
        self._assert_generator(a[0], a_sym, basis)
        assert info["plemelj_residual"] < 1e-12

    def test_rejects_indefinite_single_layer(self):
        k = np.eye(6)
        s = np.eye(6)  # P = -S negative definite
        with pytest.raises(ValueError):
            symmetrize(k[None], s[None], _unit_weights(k))

    def test_rejects_mismatched_weights(self):
        k = np.eye(6)
        s = -np.eye(6)
        with pytest.raises(ValueError):
            symmetrize(k[None], s[None], np.ones(5))

    def test_edge_clipping_reported(self):
        # one P eigenvalue below the floor: clipped and counted
        p = np.diag([1.0, 0.5, 1e-9])
        k = np.diag([0.3, 0.2, 0.1])
        a, info = symmetrize(k[None], -p[None], _unit_weights(k))
        assert info["clipped_modes"] == 1
        assert np.abs(np.sort(np.linalg.eigvalsh(a[0])) - [0.1, 0.2, 0.3]).max() < 1e-12

    def test_sphere_plemelj_residual(self, sphere8, sphere16):
        # contract: < 1e-2 at the working resolutions and decreasing
        assert sphere16.info["plemelj_residual"] < 1e-2
        assert sphere16.info["plemelj_residual"] < sphere8.info["plemelj_residual"]


class TestSphereLevels:
    def test_leading_clusters(self, sphere16):
        # exact multiset at lam = mu = 1: 0.5 x6, 0.3 x5, 3/14 x7
        ev = np.sort(sphere16.ev)[::-1]
        assert abs(ev[:6].mean() - 0.5) / 0.5 < 2e-2
        assert abs(ev[6:11].mean() - 0.3) / 0.3 < 3e-2
        assert abs(ev[11:18].mean() - 3.0 / 14.0) / (3.0 / 14.0) < 4e-2

    def test_eigenvalues_are_real(self, sphere16):
        # the symmetrized route returns a symmetric matrix: exactly real
        assert np.isrealobj(sphere16.ev)

    def test_window_occupancy(self, sphere16):
        poly = essential_spectrum(P11)
        om, wins = cluster_windows(poly.roots)
        inw = sum(
            int(np.sum((sphere16.ev >= zl) & (sphere16.ev <= zr)))
            for zl, zr in wins
        )
        # measured 0.916 at n=16; essential-spectrum accumulation
        assert inw / sphere16.ev.size > 0.85

    def test_count_conservation(self, sphere16):
        # each window's eigenvalues split into those above root + tau,
        # below root - tau, and within tau of the root
        poly = essential_spectrum(P11)
        ev = sphere16.ev
        clustered = sum(
            r["n_plus"][0] + r["n_minus"][0] + np.sum(np.abs(ev - r["root"]) <= r["tau"][0])
            for r in cluster_and_count(ev, poly)
        )
        om, wins = cluster_windows(poly.roots)
        outside = np.sum(
            ~np.any(
                [(sphere16.ev >= zl) & (sphere16.ev <= zr) for zl, zr in wins],
                axis=0,
            )
        )
        assert clustered + int(outside) == sphere16.ev.size

    def test_measured_multiplicities(self, sphere8, sphere16):
        # separable root-0 family levels: 0.3 (2k+1 = 5) and 3/14 (7);
        # 0.5 and 1/6 are two-family coincidences, deeper levels drown
        # in unresolved modes at these grids
        lam0, lam_m, lam_p = sphere_exact_eigenvalues(P11, 3)
        levels = lam0[1:3]
        counts, worst = level_multiplicities(sphere16.ev, levels, (0.19, 0.42))
        assert list(counts) == [5, 7]
        assert worst < 0.1
        head, _ = level_multiplicities(sphere16.ev, np.array([0.5]), (0.42, 0.6))
        assert head[0] == 6  # lam_1^0 and lam_1^- coincide: 3 + 3
        cf, k_star = certified_multiplicities(
            sphere8.ev, sphere16.ev, levels, (0.19, 0.42)
        )
        # n=8 still misassigns unresolved modes to 3/14: only the
        # first level is certified by this coarse pair
        assert k_star == 1
        assert list(cf) == [5, 7]


class TestClusterCounting:
    def test_window_edges(self):
        om, wins = cluster_windows([-KK, 0.0, KK])
        assert np.allclose(om, [-KK, 0.0, KK])
        lo, hi = wins[1]
        assert abs(lo + 0.45 * KK) < 1e-14 and abs(hi - 0.45 * KK) < 1e-14
        # windows around distinct roots are disjoint
        assert wins[0][1] < wins[1][0] < wins[1][1] < wins[2][0]

    def test_counts_match_definition(self):
        ev = np.array([0.01, 0.02, -0.03, 0.2, -0.5])
        recs = cluster_and_count(ev, ROOTS)
        rec = recs[1]
        assert rec["root"] == 0.0 and rec["tau"].size == 24
        zl, zr = cluster_windows(ROOTS.roots)[1][1]  # the zero root's window
        for t, npl, nmi in zip(rec["tau"], rec["n_plus"], rec["n_minus"]):
            assert npl == np.sum((ev > t) & (ev <= zr))
            assert nmi == np.sum((ev < -t) & (ev >= zl))

    def test_counts_monotone_in_tau(self):
        rng = np.random.default_rng(17)
        ev = rng.uniform(-0.08, 0.08, 400)
        recs = cluster_and_count(ev, ROOTS)
        for rec in recs:
            assert np.all(np.diff(rec["n_plus"]) <= 0)
            assert np.all(np.diff(rec["n_minus"]) <= 0)

    def test_requires_roots(self):
        with pytest.raises(ValueError):
            cluster_windows([])


class TestPowerLawFit:
    def test_exact_power_data(self):
        tau = np.geomspace(1e-3, 0.5, 40)
        counts = 4.0 * tau ** (-2.0)
        fit = fit_power_law(tau, counts)
        assert abs(fit.h - 2.0) < 1e-10
        assert abs(fit.c - 4.0) / 4.0 < 1e-10
        assert fit.residual < 1e-10

    def test_staircase_counts(self):
        # lambda_j = sqrt(4/j): n(tau) = floor(4/tau^2); contract
        # example asks h = 2.00 +/- 0.01 and C within 2%
        lam = np.sqrt(4.0 / np.arange(1, 20001))
        tau = np.geomspace(0.02, 0.4, 60)
        counts = np.array([np.sum(lam > t) for t in tau])
        fit = fit_power_law(tau, counts)
        assert abs(fit.h - 2.0) < 0.01
        assert abs(fit.c - 4.0) / 4.0 < 0.02

    def test_sphere_multiplicity_staircase(self):
        # levels c/k with multiplicity 2k+1 count like (c/tau)^2
        c = 0.75
        ks = np.arange(1, 3000)
        lam = np.repeat(c / ks, 2 * ks + 1)
        tau = np.geomspace(5e-4, 0.05, 50)
        counts = np.array([np.sum(lam > t) for t in tau])
        fit = fit_power_law(tau, counts)
        assert abs(fit.h - 2.0) < 0.1
        assert abs(fit.c - c * c) / (c * c) < 0.1

    def test_constant_counts_flagged(self):
        # no accumulation: slope fits to ~0 with a visible residual
        tau = np.geomspace(1e-3, 1.0, 30)
        counts = np.full(30, 7.0)
        fit = fit_power_law(tau, counts)
        assert abs(fit.h) < 1e-10 or fit.residual > 0.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_power_law([0.1, 0.2, 0.3], [4.0, 2.0, 1.0])

    def test_insufficient_span(self):
        tau = np.linspace(0.1, 0.3, 12)
        counts = 1.0 / tau
        with pytest.raises(ValueError):
            fit_power_law(tau, counts)

    def test_tied_counts_fit_the_smallest_tau(self):
        # the pruned plus side at root -1/6 of the sphere at n = 10: a run
        # of equal counts crosses the half boundary, and the fit takes the
        # 7 smallest tau, not the ties in whatever order a sort leaves them
        counts = np.array([156.0] + [152.0] * 8 + [148.0, 134.0, 109.0, 75.0, 52.0, 29.0, 0.0])
        tau = np.geomspace(0.0014, 0.075, counts.size)
        slope, log_c = np.polyfit(np.log(tau[:7]), np.log(counts[:7]), 1)
        fit = fit_power_law(tau, counts)
        assert abs(fit.h + slope) < 1e-12
        assert abs(fit.c - math.exp(log_c)) < 1e-10 * fit.c

    def test_prune_drops_smallest_tau(self):
        tau = np.array([0.5, 0.01, 0.1, 0.02, 0.3, 0.05])
        counts = np.arange(6.0)
        t2, c2 = prune_counting_samples(tau, counts)
        assert t2.min() == 0.05 and len(t2) == 4
        assert set(c2) == {0.0, 2.0, 4.0, 5.0}


class TestMultiplicities:
    def test_synthetic_assignment(self):
        levels = np.array([0.5, 0.3, 3.0 / 14.0])
        ev = np.concatenate(
            [np.full(6, 0.5), np.full(5, 0.3), np.full(7, 3.0 / 14.0)]
        ) + 1e-4
        counts, worst = level_multiplicities(ev, levels, (0.1, 0.6))
        assert list(counts) == [6, 5, 7]
        assert worst < 2e-3

    def test_certified_prefix(self):
        levels = np.array([0.5, 0.3, 0.2, 0.15])
        fine = np.repeat(levels, [3, 5, 7, 9])
        coarse = np.repeat(levels, [3, 5, 6, 2])  # third level disagrees
        counts, k_star = certified_multiplicities(coarse, fine, levels, (0.1, 0.6))
        assert k_star == 2
        assert list(counts) == [3, 5, 7, 9]


class TestCompactness:
    def test_synthetic_decay_slope(self):
        # deviations c/k with weight 2k+1 at every root: |p| ~ j^(-1/2)
        ks = np.arange(1, 200)
        ev = []
        for om, c in ((-KK, 0.012), (0.0, 0.05), (KK, 0.012)):
            ev.append(np.repeat(om + c / ks, 2 * ks + 1))
        ev = np.concatenate(ev)
        rep = compactness_check(ev, ROOTS)
        assert abs(rep["decay_slope"] + 0.5) < 0.1

    def test_distance_bound(self, sphere16):
        poly = essential_spectrum(P11)
        rep = compactness_check(sphere16.ev, poly)
        assert rep["distance_bound_ok"]
        assert rep["distance_ratio_max"] <= 1.0

    def test_sphere_slope_trend(self, sphere8, sphere16):
        # central-range slope approaches -1/2 from above on refinement;
        # measured -0.135 (n=8) and -0.257 (n=16), -0.393 at n=23
        poly = essential_spectrum(P11)
        s8 = compactness_check(sphere8.ev, poly)["decay_slope"]
        s16 = compactness_check(sphere16.ev, poly)["decay_slope"]
        assert s16 < s8 < 0.0
        assert -0.65 < s16 < -0.1
