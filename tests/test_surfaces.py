"""Radial-graph surfaces, charts and quadrature.

Oracles: finite differences of the radial jet, closed-form associated
Legendre functions, closed-form ellipsoid curvatures at the semi-axes,
the generalized eigen-equation II v = kappa I v, the prolate spheroid
area formula and spherical harmonic orthonormality under the product
quadrature.
"""

import math

import numpy as np
import pytest

from npspec.extraction import _LADDER
from npspec.surfaces import (
    _legendre,
    _real_sph_harm_jet,
    c_chart,
    make_surface,
    principal_curvatures,
    surface_quadrature,
)

SPHERE = make_surface("sphere")
ELLIPSOID = make_surface("ellipsoid", a=1.0, b=1.0, c=2.0)
BUMPY = make_surface(
    "radial_graph", harmonics={(2, 0): 0.1, (3, 2): 0.05, (2, -1): 0.03}
)
TRIAXIAL = make_surface("ellipsoid", a=1.0, b=1.2, c=0.8)
DENT = make_surface("radial_graph", harmonics=[[2, 0, -0.6]])


def _fd_jet(surface, theta, phi, h=1e-4):
    """Finite-difference first and second derivatives of rho."""
    f = lambda t, p: surface.rho_jet(t, p)[0]
    rt = (f(theta + h, phi) - f(theta - h, phi)) / (2 * h)
    rp = (f(theta, phi + h) - f(theta, phi - h)) / (2 * h)
    rtt = (f(theta + h, phi) - 2 * f(theta, phi) + f(theta - h, phi)) / h**2
    rpp = (f(theta, phi + h) - 2 * f(theta, phi) + f(theta, phi - h)) / h**2
    rtp = (
        f(theta + h, phi + h)
        - f(theta + h, phi - h)
        - f(theta - h, phi + h)
        + f(theta - h, phi - h)
    ) / (4 * h**2)
    return rt, rp, rtt, rtp, rpp


class TestRadialJets:
    @pytest.mark.parametrize("surface", [ELLIPSOID, BUMPY])
    @pytest.mark.parametrize("theta,phi", [(0.7, 0.3), (1.9, 2.4), (2.6, 5.1)])
    def test_jet_matches_finite_differences(self, surface, theta, phi):
        r, rt, rp, rtt, rtp, rpp = surface.rho_jet(theta, phi)
        fd = _fd_jet(surface, theta, phi)
        assert rt == pytest.approx(fd[0], abs=1e-8)
        assert rp == pytest.approx(fd[1], abs=1e-8)
        assert rtt == pytest.approx(fd[2], abs=1e-5)
        assert rtp == pytest.approx(fd[3], abs=1e-5)
        assert rpp == pytest.approx(fd[4], abs=1e-5)

    def test_harmonic_list_form(self):
        alt = make_surface("radial_graph", harmonics=[[2, 0, 0.1]])
        ref = make_surface("radial_graph", harmonics={(2, 0): 0.1})
        assert alt.rho_jet(1.1, 0.4) == ref.rho_jet(1.1, 0.4)

    def test_non_star_shaped_rejected(self):
        bad = make_surface("radial_graph", harmonics={(0, 0): -4.0})
        with pytest.raises(ValueError):
            bad.rho_jet(1.0, 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_surface("torus")

    @pytest.mark.parametrize(
        "kind,params,named",
        [
            ("sphere", {"radius": -1.0}, "radius -1.0"),
            ("sphere", {"radius": 0.0}, "radius 0.0"),
            ("ellipsoid", {"a": 1.0, "b": 0.0, "c": 1.0}, "b = 0.0"),
            ("ellipsoid", {"a": 1.0, "b": 1.0, "c": -2.0}, "c = -2.0"),
            ("radial_graph", {"harmonics": [[2, 3, 0.1]]}, r"\(2, 3\)"),
            ("radial_graph", {"harmonics": {(-1, 0): 0.1}}, r"\(-1, 0\)"),
            ("radial_graph", {"harmonics": [[2.5, 0, 0.1]]}, r"\[2.5, 0, 0.1\]"),
            ("radial_graph", {"harmonics": [[2, 0.0, 0.1]]}, r"\[2, 0.0, 0.1\]"),
            ("radial_graph", {"harmonics": [[True, 0, 0.1]]}, r"\[True, 0, 0.1\]"),
            ("radial_graph", {"harmonics": {(2.0, 0): 0.1}}, r"\(2.0, 0, 0.1\)"),
            ("radial_graph", {"harmonics": [[2, 0]]}, r"\[2, 0\]"),
            ("radial_graph", {"harmonics": [[2, 0, "x"]]}, r"\[2, 0, 'x'\]"),
            ("radial_graph", {"harmonics": [2, 0, 0.1]}, "harmonic 2 "),
        ],
        ids=[
            "radius<0", "radius=0", "b=0", "c<0", "m>l", "l<0",
            "l=2.5", "m=0.0", "l=true", "dict l=2.0", "two numbers", "coeff text", "flat list",
        ],
    )
    def test_invalid_parameters_rejected(self, kind, params, named):
        # a negative radius would flip the normals inward, and |m| > l
        # has no spherical harmonic; each error names the bad value
        with pytest.raises(ValueError, match=named):
            make_surface(kind, **params)

    def test_harmonic_orthonormality(self):
        # quadrature weights on the unit sphere integrate Ylm products
        # exactly; checks normalization and the quadrature at once
        quad = surface_quadrature(SPHERE, 16)
        modes = [(2, 0), (2, -1), (3, 2), (3, -3), (1, 1)]
        th = np.arccos(np.clip(quad.points[:, 2], -1, 1))
        ph = np.arctan2(quad.points[:, 1], quad.points[:, 0])
        vals = np.array(
            [[_real_sph_harm_jet(l, m, t, p)[0] for t, p in zip(th, ph)]
             for l, m in modes]
        )
        gram = (vals * quad.weights) @ vals.T
        assert np.abs(gram - np.eye(len(modes))).max() < 1e-12


class TestLegendre:
    CLOSED = {
        (2, 0): lambda t: 0.5 * (3.0 * t * t - 1.0),
        (2, 1): lambda t: -3.0 * t * np.sqrt(1.0 - t * t),
        (3, 2): lambda t: 15.0 * t * (1.0 - t * t),
    }

    @pytest.mark.parametrize("lm", sorted(CLOSED))
    def test_closed_forms_and_derivative(self, lm):
        t = np.cos(np.linspace(0.05, math.pi - 0.05, 201))
        p, dp = _legendre(*lm, t)
        exact = self.CLOSED[lm]
        assert np.abs(p - exact(t)).max() < 1e-13
        h = 1e-6
        fd = (exact(t + h) - exact(t - h)) / (2.0 * h)
        assert np.abs(dp - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())


class TestImplicitForm:
    @pytest.mark.parametrize("surface", [SPHERE, ELLIPSOID, BUMPY])
    def test_sign_convention(self, surface):
        p = surface.position(1.2, 0.9)
        assert abs(surface.implicit(p)[0]) < 1e-14
        assert surface.implicit(1.1 * p)[0] > 0.0
        assert surface.implicit(0.9 * p)[0] < 0.0

    def test_ellipsoid_normal_against_gradient(self):
        # outward normal of x^2/a^2 + y^2/b^2 + z^2/c^2 = 1
        p = ELLIPSOID.position(1.2, 0.9)
        g = np.array([p[0], p[1], p[2] / 4.0])
        g /= np.linalg.norm(g)
        grad = ELLIPSOID.implicit(p)[1]
        assert np.abs(grad / np.linalg.norm(grad) - g).max() < 1e-12


class TestPrincipalCurvatures:
    def test_sphere(self):
        for radius in (1.0, 2.5):
            s = make_surface("sphere", radius=radius)
            k1, k2, e1, e2, n = principal_curvatures(s, 1.0, 2.0)
            assert k1 == pytest.approx(-1.0 / radius, rel=1e-12)
            assert k2 == pytest.approx(-1.0 / radius, rel=1e-12)
            assert np.linalg.det(np.column_stack([e1, e2, n])) == pytest.approx(1.0)

    def test_ellipsoid_equator(self):
        # prolate (1, 1, 2) at (1, 0, 0): curvature radii b^2/a = 1 and
        # c^2/a = 4, outward convention makes both negative
        k1, k2, e1, e2, n = principal_curvatures(ELLIPSOID, math.pi / 2, 0.0)
        assert k1 == pytest.approx(-1.0, rel=1e-10)
        assert k2 == pytest.approx(-0.25, rel=1e-10)
        assert abs(e1 @ np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0, abs=1e-10)
        assert np.abs(n - np.array([1.0, 0.0, 0.0])).max() < 1e-12

    def test_frame_orthonormal(self):
        k1, k2, e1, e2, n = principal_curvatures(BUMPY, 1.3, 0.8)
        frame = np.column_stack([e1, e2, n])
        assert np.abs(frame.T @ frame - np.eye(3)).max() < 1e-12
        assert k1 <= k2

    def test_sphere_frame_pinned_to_theta_tangent(self):
        # every sphere point is umbilic: e1 is the theta tangent, not
        # whatever direction eigensolver rounding would pick
        for theta, phi in surface_quadrature(SPHERE, 10).params:
            k1, k2, e1, e2, n = principal_curvatures(SPHERE, theta, phi)
            xt = SPHERE.jet(theta, phi)["xt"]
            assert np.array_equal(e1, xt / np.linalg.norm(xt))
            assert k1 == pytest.approx(-1.0, abs=1e-14)
            assert k2 == pytest.approx(-1.0, abs=1e-14)
            again = principal_curvatures(SPHERE, theta, phi)
            for a, b in zip((k1, k2, e1, e2, n), again):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("surface", [TRIAXIAL, DENT])
    def test_generalized_eigen_equation(self, surface):
        for theta, phi in surface_quadrature(surface, 10).params:
            k1, k2, e1, e2, n = principal_curvatures(surface, theta, phi)
            jet = surface.jet(theta, phi)
            tangents = np.column_stack([jet["xt"], jet["xp"]])
            assert np.linalg.norm(e1) == pytest.approx(1.0, abs=1e-14)
            for kappa, e in ((k1, e1), (k2, e2)):
                v = np.linalg.lstsq(tangents, e, rcond=None)[0]
                assert np.abs(tangents @ v - e).max() < 1e-12
                assert np.abs(jet["II"] @ v - kappa * jet["I"] @ v).max() < 1e-12


def _fd_hessian(chart, h=1e-3):
    def hess(step):
        f = chart.height
        d11 = (f((step, 0.0)) + f((-step, 0.0))) / step**2
        d22 = (f((0.0, step)) + f((0.0, -step))) / step**2
        d12 = (
            f((step, step)) - f((step, -step)) - f((-step, step)) + f((-step, -step))
        ) / (4 * step**2)
        return np.array([[d11, d12], [d12, d22]])

    return (4.0 * hess(h) - hess(2 * h)) / 3.0


class TestCharts:
    @pytest.mark.parametrize(
        "surface,theta,phi",
        [(SPHERE, 1.0, 2.0), (ELLIPSOID, 1.1, 0.7), (BUMPY, 1.4, 3.0)],
    )
    def test_second_order_contact(self, surface, theta, phi):
        chart = c_chart(surface, theta, phi)
        assert abs(chart.height((0.0, 0.0))) < 1e-13
        # grad F(0) = 0: the normal at the origin is n, the area factor 1
        _, nu, area = chart.geometry((0.0, 0.0))
        assert np.abs(nu - chart.n).max() < 1e-10
        assert abs(area - 1.0) < 1e-12
        hess = _fd_hessian(chart)
        want = np.diag([chart.kappa1, chart.kappa2])
        assert np.abs(hess - want).max() < 1e-6

    def test_points_stay_on_surface(self):
        chart = c_chart(ELLIPSOID, 1.1, 0.7)
        for w in [(0.05, 0.0), (0.0, -0.08), (0.1, 0.1)]:
            q = chart.surface_point(w)
            g, grad = ELLIPSOID.implicit(q)
            assert abs(g) < 1e-12
            _, nq, _ = chart.geometry(w)
            assert np.abs(nq - grad / np.linalg.norm(grad)).max() < 1e-12

    def test_outside_radius_rejected(self):
        chart = c_chart(SPHERE, 1.0, 2.0)
        with pytest.raises(ValueError):
            chart.height((1.5 * chart.radius, 0.0))

    @pytest.mark.parametrize(
        "surface",
        [
            SPHERE,
            make_surface("ellipsoid", a=1.0, b=1.2, c=0.8),
            make_surface("radial_graph", harmonics=[[2, 0, -0.6]]),
        ],
    )
    def test_batch_matches_rows(self, surface):
        # one batched Newton solve gives the row-by-row values
        chart = c_chart(surface, 0.4, 1.3)
        rng = np.random.default_rng(3)
        w = rng.uniform(-0.6, 0.6, size=(40, 2)) * chart.radius
        heights = chart.height(w)
        points = chart.surface_point(w)
        assert heights.shape == (40,) and points.shape == (40, 3)
        for k in range(len(w)):
            assert abs(heights[k] - chart.height(w[k])) < 1e-13
            assert np.abs(points[k] - chart.surface_point(w[k])).max() < 1e-13
        assert np.abs(surface.implicit(points)[0]).max() < 1e-12
        grid = w.reshape(5, 8, 2)
        assert np.abs(chart.surface_point(grid) - points.reshape(5, 8, 3)).max() == 0.0

    def test_batch_outside_radius_rejected(self):
        chart = c_chart(ELLIPSOID, 1.1, 0.7)
        w = np.zeros((5, 2))
        w[3] = (0.0, 1.5 * chart.radius)
        with pytest.raises(ValueError):
            chart.height(w)
        with pytest.raises(ValueError):
            chart.surface_point(w)

    @pytest.mark.parametrize("surface", [SPHERE, TRIAXIAL, DENT])
    def test_bisection_matches_newton(self, surface):
        chart = c_chart(surface, 0.4, 1.3)
        rng = np.random.default_rng(5)
        w = rng.uniform(-0.6, 0.6, size=(30, 2)) * chart.radius
        scale = np.linalg.norm(chart.origin)
        got = chart._height_bisect(chart._plane_point(w), chart.n, scale)
        assert np.abs(got - chart.height(w)).max() < 1e-14

    def test_bisection_ray_that_misses_rejected(self):
        chart = c_chart(DENT, 0.4, 1.3)
        base = chart._plane_point(np.zeros((4, 2)))
        base[2] += 5.0 * chart.e1
        with pytest.raises(ValueError, match="chart ray does not cross the surface"):
            chart._height_bisect(base, chart.n, np.linalg.norm(chart.origin))

    def test_frame(self):
        chart = c_chart(BUMPY, 1.4, 3.0)
        frame = np.column_stack([chart.e1, chart.e2, chart.n])
        assert np.abs(frame.T @ frame - np.eye(3)).max() < 1e-12


class TestStackedCharts:
    FIELDS = ("origin", "e1", "e2", "n", "kappa1", "kappa2", "radius")

    @staticmethod
    def _points(surface):
        # every node of an n=6 rule (two latitudes near each pole) and a
        # few off-grid points
        quad = surface_quadrature(surface, 6)
        rng = np.random.default_rng(8)
        theta = np.concatenate([quad.params[:, 0], rng.uniform(0.05, 3.1, 12)])
        phi = np.concatenate([quad.params[:, 1], rng.uniform(0.0, 2.0 * np.pi, 12)])
        return theta, phi

    @pytest.mark.parametrize("surface", [SPHERE, TRIAXIAL, DENT], ids=["sphere", "triaxial", "dent"])
    def test_rows_equal_single_charts_bit_for_bit(self, surface):
        theta, phi = self._points(surface)
        charts = c_chart(surface, theta, phi)
        assert charts.origin.shape == (len(theta), 3) and charts.radius.shape == theta.shape
        for i in range(len(theta)):
            one = c_chart(surface, theta[i], phi[i])
            for name in self.FIELDS:
                assert np.array_equal(getattr(charts, name)[i], getattr(one, name)), name
                assert np.array_equal(getattr(charts[i], name), getattr(one, name)), name

    @pytest.mark.parametrize("surface", [SPHERE, TRIAXIAL, DENT], ids=["sphere", "triaxial", "dent"])
    def test_geometry_in_own_charts(self, surface):
        # one height solve over points of many charts, each point in the
        # chart of its owner, against per-chart solves
        theta, phi = self._points(surface)
        charts = c_chart(surface, theta, phi)
        rng = np.random.default_rng(4)
        owner = rng.integers(0, len(theta), 200)
        w = rng.uniform(-0.6, 0.6, size=(200, 2)) * charts.radius[owner, None]
        q, nu, area = charts[owner].geometry(w)
        for k in range(0, 200, 7):
            q1, nu1, area1 = c_chart(surface, theta[owner[k]], phi[owner[k]]).geometry(w[k])
            assert np.abs(q[k] - q1).max() < 1e-14
            assert np.abs(nu[k] - nu1).max() < 1e-14
            assert abs(area[k] - area1) < 1e-14

    def test_stacked_chart_broadcasts_over_leading_axes(self):
        charts = c_chart(TRIAXIAL, np.array([0.5, 1.2, 2.8]), np.array([0.1, 4.0, 2.2]))
        w = np.random.default_rng(6).uniform(-0.4, 0.4, size=(5, 3, 2)) * charts.radius[:, None]
        heights = charts.height(w)
        assert heights.shape == (5, 3)
        for j in range(3):
            assert np.abs(heights[:, j] - charts[j].height(w[:, j])).max() < 1e-14

    def _points_per_height(self, monkeypatch, name, points):
        """Points passed to the surface method name per height of the
        dent4 extraction's ladder, solved in one stacked call: 32 charts
        x 8 radii x 64 directions."""
        quad = surface_quadrature(DENT, 4)
        charts = c_chart(DENT, quad.params[:, 0], quad.params[:, 1])
        thetas = 2.0 * np.pi * np.arange(64) / 64
        u = np.column_stack([np.cos(thetas), np.sin(thetas)])
        w = np.geomspace(*_LADDER)[:, None, None] * u
        evaluated = []
        method = getattr(type(DENT), name)

        def counted(surface, *args):
            evaluated.append(points(*args))
            return method(surface, *args)

        monkeypatch.setattr(type(DENT), name, counted)
        heights = charts[:, None, None].height(w)
        assert heights.shape == (32, 8, 64)
        return sum(evaluated) / heights.size

    def test_newton_starts_on_the_osculating_quadric(self, monkeypatch):
        # started at F = (kappa1 w1^2 + kappa2 w2^2) / 2, Newton takes
        # 2.08 implicit evaluations per point (2.93 when started at -F)
        count = lambda point: np.prod(np.shape(point)[:-1])
        assert self._points_per_height(monkeypatch, "implicit", count) <= 2.2

    def test_one_rho_jet_per_newton_step(self, monkeypatch):
        # each step reads g and grad g from one rho jet: 2.08 point
        # evaluations per height (4.17 with one jet for each)
        count = lambda theta, phi: np.broadcast(theta, phi).size
        assert self._points_per_height(monkeypatch, "rho_jet", count) <= 2.2

    def test_off_radius_point_rejected_in_its_own_chart(self):
        charts = c_chart(TRIAXIAL, np.array([0.5, 1.2]), np.array([0.1, 4.0]))
        w = np.zeros((2, 2))
        w[1, 0] = 1.01 * charts.radius[1]
        with pytest.raises(ValueError):
            charts.height(w)


class TestArrayJet:
    @pytest.mark.parametrize("surface", [SPHERE, TRIAXIAL, DENT, BUMPY])
    def test_stacked_jet_matches_points(self, surface):
        theta, phi = np.array([1.1, 0.4]), np.array([0.7, 2.0])
        jet = surface.jet(theta, phi)
        assert jet["I"].shape == jet["II"].shape == (2, 2, 2)
        for i in range(2):
            for key, val in surface.jet(theta[i], phi[i]).items():
                assert jet[key][i].shape == np.shape(val)
                assert np.abs(jet[key][i] - val).max() < 1e-14

    @pytest.mark.parametrize("surface", [SPHERE, TRIAXIAL, DENT])
    def test_quadrature_matches_pointwise_loop(self, surface):
        n = 6
        quad = surface_quadrature(surface, n)
        xs, ws = np.polynomial.legendre.leggauss(n)
        k = 0
        for x, wg in zip(xs, ws):
            theta = math.acos(x)
            for phi in 2.0 * np.pi * np.arange(2 * n) / (2 * n):
                jet = surface.jet(theta, phi)
                weight = wg * (np.pi / n) * jet["area"] / math.sin(theta)
                assert np.array_equal(quad.params[k], [theta, phi])
                assert abs(quad.weights[k] - weight) < 1e-14 * weight
                assert np.abs(quad.points[k] - jet["x"]).max() < 1e-14
                assert np.abs(quad.normals[k] - jet["normal"]).max() < 1e-14
                k += 1
        assert k == quad.size


class TestQuadrature:
    def test_sphere_area_and_moments(self):
        quad = surface_quadrature(SPHERE, 12)
        assert quad.size == 2 * 12 * 12
        assert quad.weights.sum() == pytest.approx(4.0 * np.pi, rel=1e-13)
        z2 = (quad.weights * quad.points[:, 2] ** 2).sum()
        assert z2 == pytest.approx(4.0 * np.pi / 3.0, rel=1e-13)
        flux = quad.normals.T @ quad.weights
        assert np.abs(flux).max() < 1e-12

    def test_ellipsoid_area(self):
        # prolate spheroid a=b=1, c=2: A = 2 pi + 8 pi^2 / (3 sqrt 3)
        want = 2.0 * np.pi + 8.0 * np.pi**2 / (3.0 * np.sqrt(3.0))
        quad = surface_quadrature(ELLIPSOID, 32)
        assert quad.weights.sum() == pytest.approx(want, rel=1e-8)

    def test_nodes_on_surface_with_outward_normals(self):
        quad = surface_quadrature(BUMPY, 8)
        for i in range(0, quad.size, 17):
            p = quad.points[i]
            g, grad = BUMPY.implicit(p)
            assert abs(g) < 1e-12
            assert np.abs(quad.normals[i] - grad / np.linalg.norm(grad)).max() < 1e-12
            assert quad.normals[i] @ p > 0.0

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            surface_quadrature(SPHERE, 3)

    @pytest.mark.parametrize(
        "surface",
        [
            SPHERE,
            TRIAXIAL,
            DENT,
            make_surface("radial_graph", harmonics=[[2, 0, -0.25]]),
            make_surface("radial_graph", harmonics=[[2, 0, 0.3], [3, 1, 0.2]]),
        ],
        ids=["sphere", "triaxial", "dent", "shallow_dent", "two_harmonics"],
    )
    def test_gauss_bonnet(self, surface):
        # a closed genus-0 surface has total Gauss curvature 4 pi; this
        # ties the curvatures to the weights (measured <= 4.9e-15 relative)
        quad = surface_quadrature(surface, 48)
        k1, k2, _, _, _ = principal_curvatures(surface, quad.params[:, 0], quad.params[:, 1])
        total = quad.weights @ (k1 * k2)
        assert abs(total - 4.0 * np.pi) < 1e-12 * 4.0 * np.pi
