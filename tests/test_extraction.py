"""Kernel-to-symbol extraction tests.

The angular multiplier table is validated against a brute-force
mollified Fourier transform oracle (Gaussian mollifier, width ladder,
Richardson extrapolation in the width) before anything else relies on
it; the oracle uses plain polar quadrature, no Bessel identities, so
it pins the sign of i and the 2 pi placement independently.  Sphere
expectations come from hand-derived closed forms that are themselves
checked against the flat-boundary symbol formulas.
"""

import dataclasses
import math

import numpy as np
import pytest

from npspec import extraction
from npspec.asymptotics import coefficient_integral
from npspec.elasticity import LameParams, np_principal_symbol
from npspec.extraction import (
    AngularSymbol,
    _km1_closed_form,
    _principal_x_derivative,
    _principal_xi_derivative,
    angular_fourier_symbol,
    chart_kernel,
    curvature_matrices,
    fourier_multiplier,
    homogeneous_parts,
    np_symbol_field,
)
from npspec.surfaces import c_chart, make_surface, surface_quadrature

P11 = LameParams(1.0, 1.0)


def _mollified_transform(n, a, xi, sigma):
    """int exp(+i z.xi) exp(i n theta(z)) |z|^-a G_sigma(z) dz.

    Polar quadrature: angular trapezoid (applied first, which makes
    the radial integrand bounded), then panelwise Gauss-Legendre in
    the radius under a Gaussian cutoff of width sigma.
    """
    rho = float(np.hypot(*xi))
    phi = math.atan2(xi[1], xi[0])
    m = 1024
    theta = 2.0 * np.pi * np.arange(m) / m
    rmax = 8.0 * sigma
    panels = int(np.ceil(rmax / 0.5))
    gx, gw = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, rmax, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    r = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    rw = (half[:, None] * gw[None, :]).ravel()
    phase = np.exp(
        1j * r[:, None] * rho * np.cos(theta[None, :] - phi)
        + 1j * n * theta[None, :]
    )
    ang = phase.mean(axis=1) * 2.0 * np.pi
    vals = ang * r ** (1.0 - a) * np.exp(-(r**2) / (2.0 * sigma**2))
    return np.sum(vals * rw)


class TestFourierMultiplier:
    def test_frozen_values(self):
        # hand evaluation of 2^(2-a) pi i^|n| Gamma((|n|-a+2)/2)/Gamma((|n|+a)/2)
        assert fourier_multiplier(0, 1) == pytest.approx(2.0 * np.pi)
        assert fourier_multiplier(1, 1) == pytest.approx(2.0j * np.pi)
        assert fourier_multiplier(2, 1) == pytest.approx(-2.0 * np.pi)
        assert fourier_multiplier(3, 1) == pytest.approx(-2.0j * np.pi)
        assert fourier_multiplier(1, 2) == pytest.approx(2.0j * np.pi)
        assert fourier_multiplier(-1, 2) == pytest.approx(2.0j * np.pi)
        assert fourier_multiplier(3, 2) == pytest.approx(-2.0j * np.pi / 3.0)
        assert fourier_multiplier(5, 2) == pytest.approx(2.0j * np.pi / 5.0)

    def test_even_modes_rejected_at_degree_minus_two(self):
        for n in (0, 2, -4):
            with pytest.raises(ValueError):
                fourier_multiplier(n, 2)

    @pytest.mark.parametrize("n,a", [(0, 1), (1, 1), (2, 1), (1, 2), (-1, 2), (-3, 2)])
    def test_against_mollified_transform_oracle(self, n, a):
        # width ladder with two Richardson stages kills the sigma^-2
        # and sigma^-4 smoothing bias of the Gaussian mollifier
        xi = np.array([math.cos(0.35), math.sin(0.35)])
        m6, m12, m24 = (_mollified_transform(n, a, xi, s) for s in (6.0, 12.0, 24.0))
        r1 = (4.0 * m12 - m6) / 3.0
        r2 = (4.0 * m24 - m12) / 3.0
        oracle = (16.0 * r2 - r1) / 15.0
        want = fourier_multiplier(n, a) * np.exp(1j * n * 0.35)
        assert abs(oracle - want) < 5e-4 * abs(want)


# fixed symmetric coefficient matrices for the synthetic kernel
M1 = np.diag([1.0, 2.0, 3.0])
M2 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
M3 = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 0.0], [2.0, 0.0, 0.0]])
M4 = 0.7 * np.eye(3)


def _polar(z):
    """|z| and the direction angle of offsets (..., 2), shaped to scale
    3x3 blocks."""
    z = np.asarray(z)
    r = np.hypot(z[..., 0], z[..., 1])
    th = np.arctan2(z[..., 1], z[..., 0])
    return r[..., None, None], th[..., None, None]


def _synthetic_kernel(z):
    r, th = _polar(z)
    part2 = np.cos(th) * M1 + np.sin(3.0 * th) * M2
    part1 = np.cos(2.0 * th) * M3 + M4
    return part2 / r**2 + part1 / r


class TestHomogeneousSplit:
    def test_synthetic_kernel_split_is_exact(self):
        shapes = []

        def kernel(z):
            shapes.append(np.shape(z))
            return _synthetic_kernel(z)

        p2, p1, diag = homogeneous_parts(kernel)
        # one call on the whole ladder x direction block
        assert shapes == [(8, 64, 2)]
        assert p2.shape == p1.shape == (64, 3, 3)
        th = 2.0 * np.pi * np.arange(64) / 64
        want2 = np.cos(th)[:, None, None] * M1 + np.sin(3.0 * th)[:, None, None] * M2
        want1 = np.cos(2.0 * th)[:, None, None] * M3 + M4
        assert np.abs(p2 - want2).max() < 1e-10
        assert np.abs(p1 - want1).max() < 1e-9
        assert diag["fit_residual"] < 1e-10
        assert diag["ladder_drift"] < 1e-10
        assert diag["odd_defect"] < 1e-12

    def test_small_even_contamination_is_projected_out(self):
        def kernel(z):
            r, th = _polar(z)
            return _synthetic_kernel(z) + 1e-8 * np.cos(2.0 * th) / r**2 * np.eye(3)

        p2, _, _ = homogeneous_parts(kernel)
        assert np.abs(p2 + np.roll(p2, 32, axis=0)).max() < 1e-15

    def test_even_degree_minus_two_kernel_rejected(self):
        def kernel(z):
            r, th = _polar(z)
            return np.cos(2.0 * th) / r**2 * np.eye(3)

        with pytest.raises(ValueError):
            homogeneous_parts(kernel)

    def test_direction_count_validation(self):
        with pytest.raises(ValueError):
            homogeneous_parts(_synthetic_kernel, angles=32)
        with pytest.raises(ValueError):
            homogeneous_parts(_synthetic_kernel, angles=65)


class TestAngularSymbol:
    def test_synthetic_kernel_symbols(self):
        # modewise multiplication: cos(th) M1 / |z|^2 -> 2 pi i cos(psi) M1,
        # sin(3 th) M2 / |z|^2 -> -(2 pi i / 3) sin(3 psi) M2,
        # (cos(2 th) M3 + M4) / |z| -> (-2 pi cos(2 psi) M3 + 2 pi M4)/|xi|
        # (constants frozen from the oracle-verified multiplier table)
        p2, p1, _ = homogeneous_parts(_synthetic_kernel)
        k0 = angular_fourier_symbol(p2, -2)
        km1 = angular_fourier_symbol(p1, -1)
        assert k0.degree == 0 and km1.degree == -1
        for psi in (0.0, 0.7, 2.3):
            for t in (1.0, 3.0):
                xi = t * np.array([math.cos(psi), math.sin(psi)])
                want0 = 2.0j * np.pi * (
                    math.cos(psi) * M1 - math.sin(3.0 * psi) * M2 / 3.0
                )
                want1 = 2.0 * np.pi * (-math.cos(2.0 * psi) * M3 + M4) / t
                assert np.abs(k0(xi) - want0).max() < 1e-9
                assert np.abs(km1(xi) - want1).max() < 1e-9

    def test_even_content_rejected(self):
        m = 64
        th = 2.0 * np.pi * np.arange(m) / m
        samples = np.cos(2.0 * th)[:, None, None] * np.eye(3)[None]
        with pytest.raises(ValueError):
            angular_fourier_symbol(samples, -2)

    def test_zero_frequency_rejected(self):
        sym = AngularSymbol(degree=0, ns=np.array([1]), coeffs=np.eye(3, dtype=complex)[None])
        with pytest.raises(ValueError):
            sym(np.zeros(2))


def _closed_k0_coeff(p, u):
    """Degree -2 angular coefficient of the sphere chart kernel."""
    c = 0.5 * p.mu * (p.lam_prime - p.mu_prime)
    return c * np.array(
        [
            [0.0, 0.0, -u[0]],
            [0.0, 0.0, -u[1]],
            [u[0], u[1], 0.0],
        ]
    )


def _closed_k1_coeff(p, u, radius):
    """Degree -1 angular coefficient of the sphere chart kernel."""
    iso = 0.25 * p.mu * (p.lam_prime - p.mu_prime) * np.eye(3)
    block = np.zeros((3, 3))
    block[:2, :2] = np.outer(u, u)
    return (iso + 1.5 * p.mu * p.mu_prime * block) / radius


def _closed_km1(p, xi, radius):
    """Order -1 sphere symbol (pi/|xi|)[c/2 E + 3 mu mu' (I2 - Lambda)]."""
    r = np.linalg.norm(xi)
    uhat = xi / r
    block = np.zeros((3, 3))
    block[:2, :2] = np.eye(2) - np.outer(uhat, uhat)
    val = 0.5 * p.mu * (p.lam_prime - p.mu_prime) * np.eye(3)
    return np.pi * (val + 3.0 * p.mu * p.mu_prime * block) / r


class TestSphereChartKernel:
    @pytest.mark.parametrize("radius", [1.0, 2.5])
    def test_homogeneous_parts_match_closed_forms(self, radius):
        surf = make_surface("sphere", radius=radius)
        chart = c_chart(surf, 1.1, 0.6)
        p2, p1, _ = homogeneous_parts(lambda z: chart_kernel(P11, chart, z))
        for j in (0, 13, 31, 50):
            u = np.array([math.cos(2.0 * np.pi * j / 64), math.sin(2.0 * np.pi * j / 64)])
            k1 = _closed_k1_coeff(P11, u, radius)
            assert np.abs(p2[j] - _closed_k0_coeff(P11, u)).max() < 1e-11
            assert np.abs(p1[j] - k1).max() < 1e-8
            # the closed form in the curvatures at the umbilic -1/R
            curv = -1.0 / radius
            assert np.abs(_km1_closed_form(P11, curv, curv, u) - k1).max() < 1e-15

    def test_material_dependence(self):
        p = LameParams(2.0, 0.5)
        surf = make_surface("sphere")
        chart = c_chart(surf, 0.8, 4.0)
        p2, _, _ = homogeneous_parts(lambda z: chart_kernel(p, chart, z))
        u = np.array([math.cos(2.0 * np.pi * 4 / 64), math.sin(2.0 * np.pi * 4 / 64)])
        assert np.abs(p2[4] - _closed_k0_coeff(p, u)).max() < 1e-11

    def test_extracted_symbols_match_closed_forms(self):
        surf = make_surface("sphere")
        chart = c_chart(surf, 2.0, 1.5)
        p2, p1, _ = homogeneous_parts(lambda z: chart_kernel(P11, chart, z))
        k0 = angular_fourier_symbol(p2, -2)
        km1 = angular_fourier_symbol(p1, -1)
        for psi in (0.2, 1.8, 4.7):
            for t in (1.0, 2.0):
                xi = t * np.array([math.cos(psi), math.sin(psi)])
                assert np.abs(k0(xi) - np_principal_symbol(P11, xi)).max() < 1e-12
                assert np.abs(km1(xi) - _closed_km1(P11, xi, 1.0)).max() < 1e-7

    def test_offset_outside_chart_rejected(self):
        surf = make_surface("sphere")
        chart = c_chart(surf, 1.0, 1.0)
        with pytest.raises(ValueError):
            chart_kernel(P11, chart, np.array([5.0, 0.0]))


def _transported_x_derivative(params, surface, chart, xis):
    """d_x a0 at unit directions xis (angles, 2) as (angles, 2, 3, 3),
    by transporting the chart frame to the chart points +-h e_al.

    The frame at a point q is the unit normal at q and the Loewdin
    (symmetric) orthonormalization of the projections of e1, e2 onto
    the tangent plane there.  The flat symbol in that frame, at the
    frequency pulled back through the coordinate change, is rotated
    back to the chart frame; central differences over h = 1e-3 and
    2e-3 are combined by Richardson extrapolation.
    """
    h = np.array([1e-3, 2e-3])
    # offsets (step, sign, axis, 2)
    w = h[:, None, None, None] * np.array([1.0, -1.0])[:, None, None] * np.eye(2)
    q = chart.surface_point(w)
    _, g = surface.implicit(q)
    n_q = g / np.linalg.norm(g, axis=-1, keepdims=True)
    frame = np.column_stack([chart.e1, chart.e2, chart.n])
    tangents = frame[:, :2]
    p = tangents - n_q[..., :, None] * (n_q @ tangents)[..., None, :]
    vals, vecs = np.linalg.eigh(np.swapaxes(p, -1, -2) @ p)
    f = p @ (vecs * vals[..., None, :] ** -0.5) @ np.swapaxes(vecs, -1, -2)
    # Jacobian of the new frame's coordinates in the chart coordinates
    grad_f = -(g @ tangents) / (g @ chart.n)[..., None]
    dz = np.swapaxes(f, -1, -2) @ (tangents + chart.n[:, None] * grad_f[..., None, :])
    u = (frame.T @ np.concatenate([f, n_q[..., None]], axis=-1))[..., None, :, :]
    a0 = u @ np_principal_symbol(params, xis @ np.linalg.inv(dz)) @ np.swapaxes(u, -1, -2)
    diffs = (a0[:, 0] - a0[:, 1]) / (2.0 * h[:, None, None, None, None])
    return np.moveaxis((4.0 * diffs[0] - diffs[1]) / 3.0, 0, 1)


@pytest.fixture(scope="module")
def sphere_field():
    surf = make_surface("sphere")
    quad = surface_quadrature(surf, 4)
    return np_symbol_field(surf, P11, quad)


class TestSymbolField:
    def test_diagnostics_and_shapes(self, sphere_field):
        f = sphere_field
        assert f.charts.radius.shape == f.charts.kappa1.shape == (32,)
        # stacked evaluators, leading node axis; 4 nodes per block at 64
        # directions (8 ladder x 64 direction points per node)
        xis = _direction_stack(5)
        assert f.k0(xis).shape == f.km1(xis).shape == (32, 5, 3, 3)
        assert f.diagnostics["k0_max_err"] < 1e-12
        assert f.diagnostics["km1_max_err"] < 1e-7
        assert f.diagnostics["ladder_drift"] < 1e-10
        assert f.diagnostics["fit_residual"] < 1e-10
        assert f.diagnostics["odd_defect"] < 1e-8

    def test_x_derivative_is_curvature_commutator(self):
        # the closed form [kappa_al T_al, a0] against a central difference
        # of the flat symbol in frames transported along the surface
        th = 2.0 * np.pi * np.arange(64) / 64
        xis = np.column_stack([np.cos(th), np.sin(th)])
        for surf in (
            make_surface("sphere"),
            make_surface("ellipsoid", a=1.0, b=1.2, c=0.8),
            make_surface("radial_graph", harmonics=[[2, 0, -0.6]]),
        ):
            quad = surface_quadrature(surf, 4)
            charts = c_chart(surf, quad.params[:, 0], quad.params[:, 1])
            for params in (P11, LameParams(2.3, 0.7)):
                for i in range(quad.size):
                    chart = charts[i]
                    want = _transported_x_derivative(params, surf, chart, xis)
                    got = _principal_x_derivative(params, chart.kappa1, chart.kappa2, xis)
                    assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()

    def test_cluster_symbols_match_ball_spectrum(self):
        # at the unit sphere's curvatures (-1, -1), rank one with top
        # eigenvalue kk at the +-kk roots and 3/4 at the zero root;
        # values derived from the exact ball eigenvalue sequences
        # (counting route), independent of any convention
        kk = 1.0 / 6.0
        tops = {0: kk, 1: 0.75, 2: kk}
        for iota, top in tops.items():
            for psi in (0.0, 1.2, 3.9):
                xi = np.array([math.cos(psi), math.sin(psi)])
                m = -curvature_matrices(P11, xi).sum(axis=0)[iota]
                assert np.abs(m - m.conj().T).max() < 1e-8
                ev = np.sort(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))
                assert abs(ev[-1] - top) < 1e-6
                assert np.abs(ev[:2]).max() < 1e-6

    def test_cluster_symbol_homogeneity(self):
        xi = np.array([0.6, -0.8])
        m1 = curvature_matrices(P11, xi)
        m3 = curvature_matrices(P11, 3.0 * xi)
        assert np.abs(3.0 * m3 - m1).max() < 1e-9


@pytest.fixture(scope="module")
def dent_field():
    surf = make_surface("radial_graph", harmonics=[[2, 0, -0.6]])
    return np_symbol_field(surf, P11, surface_quadrature(surf, 4))


def _direction_stack(count=64, seed=3):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    r = rng.uniform(0.5, 2.0, count)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def _stack_vs_rows(fn, xis):
    """max |fn(stack) - [fn(row) ...]| relative to the largest entry."""
    stacked = np.asarray(fn(xis))
    rows = np.array([fn(xi) for xi in xis])
    assert stacked.shape == rows.shape
    return np.abs(stacked - rows).max() / np.abs(rows).max()


class TestStackEvaluation:
    """A (64, 2) frequency stack evaluates to the row-by-row values."""

    def test_flat_symbol_and_its_gradient(self):
        xis = _direction_stack()
        assert _stack_vs_rows(lambda xi: np_principal_symbol(P11, xi), xis) < 1e-13
        assert _stack_vs_rows(lambda xi: _principal_xi_derivative(P11, xi), xis) < 1e-13
        assert _principal_xi_derivative(P11, xis).shape == (64, 2, 3, 3)
        dx = lambda xi: _principal_x_derivative(P11, -0.7, 1.3, xi)
        assert _stack_vs_rows(dx, xis) < 1e-13
        assert dx(xis).shape == (64, 2, 3, 3)
        # the curvature matrices, with the stack after their (M1, M2) axis
        m12 = lambda xi: np.moveaxis(curvature_matrices(P11, xi), 0, -4)
        assert _stack_vs_rows(m12, xis) < 1e-13
        assert curvature_matrices(P11, xis).shape == (2, 64, 3, 3, 3)

    @pytest.mark.parametrize("name", ["sphere_field", "dent_field"])
    def test_field_evaluators(self, name, request):
        field = request.getfixturevalue(name)
        xis = _direction_stack()
        for i in range(field.charts.kappa1.size):
            assert _stack_vs_rows(lambda xi: field.k0(xi)[i], xis) < 1e-13
            assert _stack_vs_rows(lambda xi: field.km1(xi)[i], xis) < 1e-13

    def test_field_charts_equal_single_charts(self, dent_field):
        # row i of the field's stacked chart is the chart that a call at
        # node i alone gives, field by field, bit for bit
        surf = dent_field.charts.surface
        for i, (theta, phi) in enumerate(surface_quadrature(surf, 4).params):
            one = c_chart(surf, theta, phi)
            for f in dataclasses.fields(one)[1:]:
                got = getattr(dent_field.charts[i], f.name)
                assert np.array_equal(got, getattr(one, f.name)), (i, f.name)


class TestNodeBlocks:
    """Extraction runs over blocks of nodes; per-node checks name the
    node by its index in the field."""

    @pytest.mark.parametrize("angles", [64, 128])
    def test_blocked_field_matches_per_node_reference(self, angles):
        # n = 5: 50 nodes; 4 per block at 64 directions (the last block
        # holds 2) and 2 per block at 128
        surf = make_surface("radial_graph", harmonics=[[2, 0, -0.6]])
        quad = surface_quadrature(surf, 5)
        field = np_symbol_field(surf, P11, quad, angles=angles)
        assert quad.size == field.charts.kappa1.size == 50
        xis = _direction_stack()
        k0, km1 = field.k0(xis), field.km1(xis)
        for i in range(quad.size):
            p2, p1, _ = homogeneous_parts(lambda z: chart_kernel(P11, field.charts[i], z), angles)
            for got, samples, degree in ((k0[i], p2, -2), (km1[i], p1, -1)):
                want = angular_fourier_symbol(samples, degree)(xis)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_one_kernel_call_per_block_and_no_eigensolve(self, monkeypatch):
        calls = {"chart_kernel": 0, "eigvals": 0}
        eigvals = np.linalg.eigvals

        def counted_kernel(*args):
            calls["chart_kernel"] += 1
            return chart_kernel(*args)

        def counted_eigvals(a):
            calls["eigvals"] += 1
            return eigvals(a)

        monkeypatch.setattr(extraction, "chart_kernel", counted_kernel)
        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        surf = make_surface("radial_graph", harmonics=[[2, 0, -0.6]])
        quad = surface_quadrature(surf, 4)
        field = np_symbol_field(surf, P11, quad, angles=64)
        coefficient_integral(P11, field.charts.kappa1, field.charts.kappa2, quad.weights)
        assert field.charts.kappa1.size == 32
        assert calls["chart_kernel"] <= 8
        # the integral takes its spectra from trace tables
        assert calls["eigvals"] == 0

    @staticmethod
    def _spoiled_kernel(block, node, term):
        """chart_kernel plus term(z) at one node of one block (call)."""
        calls = []

        def kernel(params, chart, z):
            out = chart_kernel(params, chart, z)
            if len(calls) == block:
                out[node] += term(z)
            calls.append(block)
            return out

        return kernel

    def test_odd_check_names_the_node(self, monkeypatch):
        # at 64 directions the second block holds nodes 4-7; an even
        # degree -2 term at its second node is node 5 of the field
        even = lambda z: np.cos(2.0 * _polar(z)[1]) / _polar(z)[0] ** 2 * np.eye(3)
        monkeypatch.setattr(extraction, "chart_kernel", self._spoiled_kernel(1, 1, even))
        surf = make_surface("sphere")
        with pytest.raises(ValueError, match=r"is not odd: .* at node 5$"):
            np_symbol_field(surf, P11, surface_quadrature(surf, 4))

    def test_k0_check_names_the_node(self, monkeypatch):
        # an odd degree -2 term passes the odd check and moves the degree
        # 0 symbol off the flat form at node 2 of the second block, node 6
        odd = lambda z: 0.01 * np.cos(_polar(z)[1]) / _polar(z)[0] ** 2 * M1
        monkeypatch.setattr(extraction, "chart_kernel", self._spoiled_kernel(1, 2, odd))
        surf = make_surface("sphere")
        with pytest.raises(ValueError, match=r"off closed form by .* at node 6$"):
            np_symbol_field(surf, P11, surface_quadrature(surf, 4))

    def test_km1_check_names_the_node(self, monkeypatch):
        # an even degree -1 term leaves the degree -2 part alone and moves
        # the degree -1 samples off the closed form at node 6
        even = lambda z: 0.01 * M4 / _polar(z)[0]
        monkeypatch.setattr(extraction, "chart_kernel", self._spoiled_kernel(1, 2, even))
        surf = make_surface("sphere")
        with pytest.raises(ValueError, match=r"degree -1 samples off closed form by .* at node 6$"):
            np_symbol_field(surf, P11, surface_quadrature(surf, 4))

    def test_even_content_check_names_the_node(self):
        m = 64
        th = 2.0 * np.pi * np.arange(m) / m
        samples = np.cos(th)[:, None, None] * M1 + np.zeros((3, m, 3, 3))
        samples[2] += np.cos(2.0 * th)[:, None, None] * np.eye(3)
        with pytest.raises(ValueError, match="at node 2$"):
            angular_fourier_symbol(samples, -2)
