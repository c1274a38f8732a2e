"""Counting coefficient tests.

Synthetic symbol fields with constant or low-harmonic angular
profiles have counting integrals computable in closed form (the
normalization collapses to surface area times an angular moment);
those values are frozen here as oracles.  The real-pipeline values on
the unit sphere are checked against the coefficients implied by the
exact ball spectrum, and on the ellipsoid against the convex law with
its Willmore energy from the closed-form mean curvature.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from npspec import asymptotics, surfaces
from npspec.asymptotics import coefficient_integral
from npspec.elasticity import LameParams
from npspec.extraction import curvature_matrices, np_symbol_field
from npspec.surfaces import make_surface, principal_curvatures, surface_quadrature

RNG = np.random.default_rng(20240911)

# an ellipsoid, a concave dent and a radial graph without rotational symmetry
CURVED = {
    "ellipsoid": make_surface("ellipsoid", a=1.0, b=1.2, c=0.8),
    "dent": make_surface("radial_graph", harmonics=[[2, 0, -0.6]]),
    "two-harmonic": make_surface("radial_graph", harmonics=[[2, 0, 0.3], [3, 1, 0.2]]),
}
SURFACES = {"sphere": make_surface("sphere"), **CURVED}


class TestSignedPowerTrace:
    """The signed power traces Tr[(m)_pm^2] of the coefficient integral,
    on stand-in symbols of total weight 4 pi, where C_pm = Tr[(m)_pm^2]
    for a symbol constant over the directions."""

    def test_diagonal_split(self):
        (cp,), (cm,), _ = _constant_integral([lambda xi: np.diag([2.0, -3.0, 0.0])], [4.0 * np.pi])
        assert cp == pytest.approx(4.0, rel=1e-12)
        assert cm == pytest.approx(9.0, rel=1e-12)

    def test_similarity_invariance(self):
        # non-normal similarity keeps the (real) spectrum and both traces
        s = np.eye(3) + 0.4 * RNG.normal(size=(3, 3))
        m = s @ np.diag([0.5, -0.2, 0.1]) @ np.linalg.inv(s)
        (cp,), (cm,), _ = _constant_integral([lambda xi: m], np.full(4, np.pi))
        assert cp == pytest.approx(0.26, rel=1e-9)
        assert cm == pytest.approx(0.04, rel=1e-9)

    def test_zero_eigenvalues_belong_to_neither_part(self):
        # the zero cut is 1e-7 of the node's magnitude (here 1): +-5e-8
        # fall inside it on either side of zero, +-2e-7 outside
        (cp,), (cm,), _ = _constant_integral([lambda xi: np.diag([1.0, 5e-8, -5e-8])], [4.0 * np.pi])
        assert cp == pytest.approx(1.0, rel=1e-12)
        assert cm == 0.0
        (cp,), (cm,), _ = _constant_integral([lambda xi: np.diag([1.0, 2e-7, -2e-7])], [4.0 * np.pi])
        assert cp == pytest.approx(1.0 + 4e-14, rel=1e-12)
        assert cm == pytest.approx(4e-14, rel=1e-6)

    def test_complex_spectrum_rejected(self):
        rot = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        with pytest.raises(ValueError, match="spectrum not real at node 0"):
            _constant_integral([lambda xi: rot], [4.0 * np.pi])
        # a cyclic permutation, with tr b^2 = 0 and the cube roots of unity
        # as spectrum, at any scale
        cyclic = 1e-7 * np.roll(np.eye(3), 1, axis=0)
        with pytest.raises(ValueError, match="spectrum not real at node 0"):
            _constant_integral([lambda xi: cyclic], [4.0 * np.pi])

    def test_stack_gives_one_trace_per_matrix(self):
        # symmetric M1, M2 keep every kappa1 M1 + kappa2 M2 real; each node
        # adds its own weighted traces, including a zero symbol (kappa = 0)
        # and one at 1e-3 of the others' scale
        rng = np.random.default_rng(5)
        m1, m2 = (a + a.T for a in rng.normal(size=(2, 3, 3)))
        kappa = rng.uniform(-1.0, 1.0, size=(7, 2))
        kappa[5] = 0.0
        kappa[6] *= 1e-3
        weights = rng.uniform(0.5, 1.5, size=7)
        cp, cm, _ = _curvature_integral([lambda xi: (m1, m2)], *kappa.T, weights)
        vals = np.linalg.eigvalsh(kappa[:, 0, None, None] * m1 + kappa[:, 1, None, None] * m2)
        for got, keep in ((cp[0], vals > 0.0), (cm[0], vals < 0.0)):
            # the directions integrate to 2 pi: C = (4 pi)^-1 sum w Tr
            want = (weights * np.sum(np.where(keep, vals**2, 0.0), axis=-1)).sum() / (4.0 * np.pi)
            assert got == pytest.approx(want, rel=1e-13)

    def test_complex_matrix_in_a_stack_rejected(self):
        # a complex pair -1/3 +- 0.1i beside 2/3 in b: tr b^2 > 0, so the
        # negative discriminant rejects it, at the one node that has it
        m2 = np.array([[0.0, 0.1, 0.0], [-0.1, 0.0, 0.0], [0.0, 0.0, 1.0]])
        b2 = m2 - np.trace(m2) / 3.0 * np.eye(3)
        assert np.trace(b2 @ b2) > 0.1
        kappa2 = np.zeros(10)
        kappa2[8] = 1.0
        with pytest.raises(ValueError, match="spectrum not real at node 8:"):
            _curvature_integral([lambda xi: (np.eye(3), m2)], np.ones(10), kappa2, np.ones(10))

    def test_external_scale_admits_negligible_matrices(self):
        # a complex pair of size 1e-14 is rejected alone, and accepted
        # beside x^2 e11, which sets the node's magnitude; it adds < 1e-27
        rot = np.zeros((3, 3))
        rot[1, 2], rot[2, 1] = 1e-14, -1e-14
        with pytest.raises(ValueError, match="spectrum not real at node 0"):
            _constant_integral([lambda xi: rot], [4.0 * np.pi])

        def m_eval(xi):
            out = np.zeros(xi.shape[:-1] + (3, 3)) + rot
            out[..., 0, 0] = xi[..., 0] ** 2
            return out

        (cp,), (cm,), _ = _constant_integral([m_eval], [4.0 * np.pi])
        assert cp == pytest.approx(3.0 / 8.0, rel=1e-12)
        assert cm < 1e-27

    def test_near_double_roots(self):
        # the cubic formula loses digits in a split pair, not in its
        # squares' sum: 0.7 and 0.7 + 1e-9 under a non-normal similarity,
        # and a double zero beside 0.5 stays out of C- exactly
        s = np.eye(3) + 0.4 * RNG.normal(size=(3, 3))
        m = s @ np.diag([0.7, 0.7 + 1e-9, -0.4]) @ np.linalg.inv(s)
        (cp,), (cm,), _ = _constant_integral([lambda xi: m], [4.0 * np.pi])
        assert cp == pytest.approx(0.49 + (0.7 + 1e-9) ** 2, rel=1e-12)
        assert cm == pytest.approx(0.16, rel=1e-12)
        q, _ = np.linalg.qr(RNG.normal(size=(3, 3)))
        m = q @ np.diag([0.5, 0.0, 0.0]) @ q.T
        (cp,), (cm,), _ = _constant_integral([lambda xi: m], [4.0 * np.pi])
        assert cp == pytest.approx(0.25, rel=1e-12)
        assert cm == 0.0


def _curvature_integral(m_funcs, kappa1, kappa2, weights):
    """coefficient_integral on stand-in curvature matrices: m_funcs[r]
    gives root r's pair (M1, M2) at frequencies xi (..., 2), each
    broadcasting to xi.shape[:-1] + (3, 3)."""

    def m12(params, xi):
        pairs = [
            np.stack([np.broadcast_to(m, xi.shape[:-1] + (3, 3)) for m in f(xi)])
            for f in m_funcs
        ]
        return np.stack(pairs, axis=-3)

    with mock.patch.object(asymptotics, "curvature_matrices", m12):
        return coefficient_integral(
            None, np.asarray(kappa1, float), np.asarray(kappa2, float), np.asarray(weights, float)
        )


def _constant_integral(m_funcs, weights):
    """The integral with m_funcs[r](xi) every node's cluster symbol at
    root r: curvatures (1, 0) on M1 = m_funcs[r] and M2 = 0."""
    n = len(weights)
    pairs = [lambda xi, f=f: (f(xi), 0.0) for f in m_funcs]
    return _curvature_integral(pairs, np.ones(n), np.zeros(n), weights)


class TestCoefficientIntegral:
    def test_constant_symbol_closed_form(self):
        # m = diag(0.4, -0.3, 0) on the circle, total weight 4 pi:
        # C_pm = (2 pi)^-2 / 2 * 4 pi * 2 pi * value^2 = value^2
        m = np.diag([0.4, -0.3, 0.0])
        (cp,), (cm,), info = _constant_integral([lambda xi: m], np.full(8, 4.0 * np.pi / 8.0))
        assert cp == pytest.approx(0.16, rel=1e-12)
        assert cm == pytest.approx(0.09, rel=1e-12)
        assert info["angle_drift"][0] < 1e-13

    def test_angular_profile_moment(self):
        # m = cos^2(phi) e11: angular mean of cos^4 is 3/8, so C_+ = 3/8
        def m_eval(xi):
            c2 = xi[..., 0] ** 2 / np.sum(xi * xi, axis=-1)
            out = np.zeros(xi.shape[:-1] + (3, 3))
            out[..., 0, 0] = c2
            return out

        (cp,), (cm,), _ = _constant_integral([m_eval], np.full(6, 4.0 * np.pi / 6.0))
        assert cp == pytest.approx(3.0 / 8.0, rel=1e-12)
        assert cm == pytest.approx(0.0, abs=1e-15)

    def test_drift_reads_the_even_directions(self):
        # cos^20(phi) e11 on total weight 4 pi: C+ is the direction mean
        # of cos^40 = 2^-40 sum_k binom(40, k) exp(i (40 - 2k) phi).  64
        # directions keep only mode 0, binom(40, 20) / 2^40; the 32 even
        # ones alias modes +-32 (k = 4, 36) onto it as well, adding
        # 2 binom(40, 4) / 2^40, so the drift is 2 binom(40, 4) / binom(40, 20)
        def m_eval(xi):
            out = np.zeros(xi.shape[:-1] + (3, 3))
            out[..., 0, 0] = (xi[..., 0] / np.linalg.norm(xi, axis=-1)) ** 20
            return out

        (cp,), (cm,), info = _constant_integral([m_eval], np.full(4, np.pi))
        assert cp == pytest.approx(math.comb(40, 20) / 2.0**40, rel=1e-12)
        assert cm == 0.0
        want = 2.0 * math.comb(40, 4) / math.comb(40, 20)
        assert info["angle_drift"][0] == pytest.approx(want, rel=1e-8)

    def test_two_roots_from_one_call(self):
        # root 0: the constant diag(0.4, -0.3, 0), C+ = 0.16, C- = 0.09;
        # root 1: cos^20(phi) e11, C+ = angular mean of cos^40 =
        # binom(40, 20) / 2^40 (mode 40, exact on 64 directions and
        # aliased on 32, so only this root drifts); total weight 4 pi
        def cos20(xi):
            out = np.zeros(xi.shape[:-1] + (3, 3))
            out[..., 0, 0] = (xi[..., 0] / np.linalg.norm(xi, axis=-1)) ** 20
            return out

        m = np.diag([0.4, -0.3, 0.0])
        cp, cm, info = _constant_integral([lambda xi: m, cos20], np.full(8, 4.0 * np.pi / 8.0))
        assert cp == pytest.approx([0.16, math.comb(40, 20) / 2.0**40], rel=1e-12)
        assert cm == pytest.approx([0.09, 0.0], rel=1e-12, abs=1e-15)
        assert info["angle_drift"][0] < 1e-13
        assert info["angle_drift"][1] > 1e-7

    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (2.3, 0.7)])
    @pytest.mark.parametrize("surface", list(SURFACES.values()), ids=list(SURFACES))
    def test_matches_an_eigensolver_reference(self, surface, lam, mu):
        # reference: np.linalg.eigvals of kappa1 M1 + kappa2 M2 at every
        # node, root and direction, squared positive and negative parts
        # beyond a zero cut of 1e-12 of the node's largest entry, on the
        # 64 directions and on their even half (measured <= 6.4e-14 of
        # max(C+, C-) and <= 1.1e-13 in the drift)
        params = LameParams(lam, mu)
        quad = surface_quadrature(surface, 8)
        k1, k2, _, _, _ = principal_curvatures(surface, quad.params[:, 0], quad.params[:, 1])
        cp, cm, info = coefficient_integral(params, k1, k2, quad.weights)
        thetas = 2.0 * np.pi * np.arange(64) / 64
        m1, m2 = curvature_matrices(params, np.column_stack([np.cos(thetas), np.sin(thetas)]))
        mats = k1[:, None, None, None, None] * m1 + k2[:, None, None, None, None] * m2
        vals = np.linalg.eigvals(mats)
        assert np.abs(vals.imag).max() < 1e-6 * np.abs(vals).max()
        cut = 1e-12 * np.abs(mats).max(axis=(1, 2, 3, 4))[:, None, None, None]
        want = []
        for step in (1, 2):
            sums = [
                np.einsum("n,narv->r", quad.weights, np.where(keep, vals.real**2, 0.0)[:, ::step])
                for keep in (vals.real > cut, vals.real < -cut)
            ]
            want.append(np.array(sums) * (2.0 * np.pi * step / 64) / (8.0 * np.pi**2))
        (want_p, want_m), (half_p, half_m) = want
        scale = np.maximum(want_p, want_m)
        assert np.all(np.abs(cp - want_p) <= 1e-12 * scale)
        assert np.all(np.abs(cm - want_m) <= 1e-12 * scale)
        assert np.array_equal(cm == 0.0, want_m == 0.0)
        drift = np.maximum(abs(want_p - half_p), abs(want_m - half_m)) / scale
        assert np.abs(info["angle_drift"] - drift).max() <= 1e-12

    def test_complex_cluster_spectrum_rejected(self):
        rot = 0.1 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            _constant_integral([lambda xi: np.eye(3), lambda xi: rot], [1.0])

    def test_complex_spectrum_error_names_the_node(self):
        # node 3 is the only one with kappa2 on the rotation
        rot = 0.1 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        kappa2 = np.zeros(6)
        kappa2[3] = 1.0
        with pytest.raises(ValueError, match="spectrum not real at node 3:"):
            _curvature_integral([lambda xi: (np.eye(3), rot)], np.ones(6), kappa2, np.ones(6))

    def test_error_counts_nodes_across_blocks(self, monkeypatch):
        # one node per block: node 3 sits in the fourth block
        monkeypatch.setattr(surfaces, "_BLOCK_POINTS", 1)
        self.test_complex_spectrum_error_names_the_node()

    @pytest.mark.parametrize("budget", [1, 200, 10**6])
    def test_block_size_leaves_every_bit(self, monkeypatch, budget):
        # 128 nodes: 4 blocks by default, 128, 43 or one with the budget
        quad = surface_quadrature(CURVED["two-harmonic"], 8)
        k1, k2, *_ = principal_curvatures(CURVED["two-harmonic"], *quad.params.T)
        p = LameParams(2.3, 0.7)
        cp, cm, info = coefficient_integral(p, k1, k2, quad.weights)
        monkeypatch.setattr(surfaces, "_BLOCK_POINTS", budget)
        cp_b, cm_b, info_b = coefficient_integral(p, k1, k2, quad.weights)
        assert np.array_equal(cp_b, cp) and np.array_equal(cm_b, cm)
        assert np.array_equal(info_b["angle_drift"], info["angle_drift"])

    def test_memory_stays_flat_in_the_rule(self):
        # 512 and 8192 nodes of the dent; arrays over all nodes at once
        # would grow the peak 16-fold
        def peak(n):
            quad = surface_quadrature(CURVED["dent"], n)
            k1, k2, *_ = principal_curvatures(CURVED["dent"], *quad.params.T)
            tracemalloc.start()
            try:
                coefficient_integral(LameParams(1.0, 1.0), k1, k2, quad.weights)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(64) <= 1.5 * peak(16)

    def test_sphere_pipeline_matches_ball_spectrum(self):
        # C+(0) = 9/16 and C+(+-kk) = kk^2 are implied by the exact ball
        # eigenvalue sequences with multiplicities 2k+1; C- vanishes
        surf = make_surface("sphere")
        p = LameParams(1.0, 1.0)
        quad = surface_quadrature(surf, 4)
        field = np_symbol_field(surf, p, quad)
        kk = 1.0 / 6.0
        want = {0: kk**2, 1: 9.0 / 16.0, 2: kk**2}
        cp, cm, info = coefficient_integral(
            p, field.charts.kappa1, field.charts.kappa2, quad.weights
        )
        for iota, target in want.items():
            assert cp[iota] == pytest.approx(target, rel=1e-6)
            assert abs(cm[iota]) < 1e-9
            assert info["angle_drift"][iota] < 1e-8


class TestTraceIdentity:
    """With real cluster spectra and d = 2, C+ + C- integrates
    Tr[m^2] = kappa1^2 Tr[M1^2] + 2 kappa1 kappa2 Tr[M1 M2] + kappa2^2 Tr[M2^2]
    over the nodes, which needs no eigensolve: with A_ij the direction
    integrals of Tr[M_i M_j], C+ + C- = (8 pi^2)^-1 sum w (kappa1^2 A11
    + 2 kappa1 kappa2 A12 + kappa2^2 A22).  Since A11 = A22 and
    Gauss-Bonnet gives sum w kappa1 kappa2 = 4 pi, that is the Willmore
    relation C+ + C- = alpha W + beta, W = sum w H^2,
    alpha = A11 / (2 pi^2), beta = (A12 - A11) / pi, at every root."""

    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (2.3, 0.7)])
    @pytest.mark.parametrize("surface", list(CURVED.values()), ids=list(CURVED))
    def test_trace_form_and_willmore_relation(self, surface, lam, mu):
        params = LameParams(lam, mu)
        quad = surface_quadrature(surface, 16)
        k1, k2, _, _, _ = principal_curvatures(surface, quad.params[:, 0], quad.params[:, 1])
        cp, cm, _ = coefficient_integral(params, k1, k2, quad.weights)
        thetas = 2.0 * np.pi * np.arange(64) / 64
        m1, m2 = curvature_matrices(params, np.column_stack([np.cos(thetas), np.sin(thetas)]))
        area = lambda a, b: 2.0 * np.pi / 64 * np.einsum("tlij,tlji->l", a, b).real
        a11, a12, a22 = area(m1, m1), area(m1, m2), area(m2, m2)
        # the swap symmetry of criterion 8 (measured 2e-17)
        assert np.abs(a11 - a22).max() <= 1e-12 * a11.max()
        w, total = quad.weights, cp + cm
        trace_form = (
            (w * k1**2).sum() * a11 + 2.0 * (w * k1 * k2).sum() * a12 + (w * k2**2).sum() * a22
        ) / (8.0 * np.pi**2)
        # measured <= 5.3e-15
        assert np.abs(total - trace_form).max() <= 1e-12 * total.min()
        willmore = a11 / (2.0 * np.pi**2) * (w * (0.5 * (k1 + k2)) ** 2).sum() + (a12 - a11) / np.pi
        # measured <= 2.2e-6: the n = 16 rule's own Gauss-Bonnet error
        assert (np.abs(total - willmore) / total).max() <= 1e-5


# curvature points (cos a, sin a) at 36 angles, none on an axis, so each
# quadrant's sign pattern is unambiguous
_ALPHA = 2.0 * np.pi * (np.arange(36) + 0.5) / 36
DENSITY_KAPPA = np.column_stack([np.cos(_ALPHA), np.sin(_ALPHA)])
# admissible Lame pairs from near the 3 lam + 2 mu = 0 edge to nearly incompressible
DENSITY_PAIRS = [(1.0, 1.0), (-0.2, 0.5), (10.0, 0.7), (2.3, 0.7), (0.0, 1.0), (0.5, 2.0)]


def _densities(params, kappa):
    """(C+, C-) of one node of weight 1 at each curvature pair: the
    coefficient integral's density, shape (points, side, root)."""
    ones = np.ones(1)
    return np.array(
        [coefficient_integral(params, k[:1], k[1:], ones)[:2] for k in kappa]
    )


@pytest.fixture(scope="module")
def densities():
    """Each pair's densities at DENSITY_KAPPA and at its mirror -DENSITY_KAPPA."""
    return {
        pair: (_densities(LameParams(*pair), DENSITY_KAPPA),
               _densities(LameParams(*pair), -DENSITY_KAPPA))
        for pair in DENSITY_PAIRS
    }


class TestDensityIdentities:
    """Facts of the coefficient density on the unit circle of curvature
    pairs, roots in the order (-k, 0, k); each bound sits a few times
    above the value measured on these 36 angles and 6 pairs."""

    def test_zero_root_is_lame_free(self, densities):
        ref = densities[(1.0, 1.0)][0][:, :, 1]
        for pair in DENSITY_PAIRS:
            # measured <= 1.8e-17 against densities up to 2.2e-2
            assert np.abs(densities[pair][0][:, :, 1] - ref).max() <= 1e-16

    def test_outer_roots_scale_as_36_k_squared(self, densities):
        ref = densities[(1.0, 1.0)][0][:, :, ::2]
        for pair in DENSITY_PAIRS:
            scaled = 36.0 * LameParams(*pair).kk ** 2 * ref
            got = densities[pair][0][:, :, ::2]
            assert np.array_equal(got == 0.0, ref == 0.0)
            # measured <= 4.7e-15 of each (side, root) profile's largest value
            assert np.all(np.abs(got - scaled) <= 5e-14 * np.abs(scaled).max(axis=0))

    def test_minus_side_mirrors_plus(self, densities):
        for at, mirrored in densities.values():
            assert np.array_equal(at[:, 1], mirrored[:, 0])

    def test_one_signed_nodes(self, densities):
        # outward normal: convex points, like the unit sphere's
        # kappa = (-1, -1), have both curvatures negative
        a = 27.0 / (512.0 * np.pi)
        k1, k2 = DENSITY_KAPPA.T
        convex = (k1 < 0.0) & (k2 < 0.0)
        concave = (k1 > 0.0) & (k2 > 0.0)
        form = a * (k1**2 + k2**2) + (2.0 * a / 3.0) * k1 * k2
        for at, _ in densities.values():
            # measured misfit 1.0e-17 against values 1.8e-2 to 2.2e-2
            assert np.abs(at[convex, 0, 1] - form[convex]).max() <= 1e-16
            assert np.all(at[concave, 0] == 0.0)


def _ellipsoid_willmore(a, b, c, n=48):
    """W = int H^2 dS of the ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1
    from its closed-form mean curvature, on an n x 2n Gauss-Legendre (cos
    theta) x trapezoid rule of its own (within 4e-15 of n = 96 from n = 24)."""
    u, wu = np.polynomial.legendre.leggauss(n)
    phi = np.pi * np.arange(2 * n) / n
    u, s = u[:, None], np.sqrt(1.0 - u[:, None] ** 2)
    d = 1.0 / np.array([a, b, c]) ** 2
    # p = grad F / 2 for F = sum d_i x_i^2 - 1
    p = np.stack(np.broadcast_arrays(s * np.cos(phi) / a, s * np.sin(phi) / b, u / c))
    pp = (p * p).sum(axis=0)
    h = ((p * p * d[:, None, None]).sum(axis=0) - pp * d.sum()) / (2.0 * pp**1.5)
    area = a * b * c * np.sqrt(pp)  # |x_u x x_phi| for u = cos theta
    return float((wu[:, None] * h**2 * area).sum() * np.pi / n)


class TestConvexLaw:
    """On a convex surface every node is one-signed, so C- = 0 at every
    root and C+ is the sphere's value times f = 3 W / (8 pi) - 1/2,
    W = int H^2 dS: C+(0) = (9/16) f and C+(+-k) = k^2 f."""

    def test_willmore_reference(self):
        assert _ellipsoid_willmore(1.0, 1.0, 1.0) == pytest.approx(4.0 * np.pi, rel=1e-14)
        assert _ellipsoid_willmore(1.0, 1.2, 0.8) == pytest.approx(13.4351959091245, rel=1e-13)

    # measured relative errors 9.97e-7 at n = 16 and 3.9e-13 at n = 32
    # (1.42e-3 at n = 8), the same at both pairs
    @pytest.mark.parametrize("n, tol", [(16, 2e-6), (32, 1e-12)])
    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.0, 1.0)])
    def test_ellipsoid_matches_closed_form(self, n, tol, lam, mu):
        surface = CURVED["ellipsoid"]
        params = LameParams(lam, mu)
        f = 3.0 * _ellipsoid_willmore(1.0, 1.2, 0.8) / (8.0 * np.pi) - 0.5
        quad = surface_quadrature(surface, n)
        k1, k2, *_ = principal_curvatures(surface, *quad.params.T)
        cp, cm, _ = coefficient_integral(params, k1, k2, quad.weights)
        want = f * np.array([params.kk**2, 9.0 / 16.0, params.kk**2])
        assert np.abs(cp / want - 1.0).max() <= tol
        assert np.all(cm == 0.0)
