"""Counting coefficient tests.

Synthetic symbol fields with constant or low-harmonic angular
profiles have counting integrals computable in closed form (the
normalization collapses to surface area times an angular moment);
those values are frozen here as oracles.  The real-pipeline values on
the unit sphere are checked against the coefficients implied by the
exact ball spectrum.
"""

import math
from unittest import mock

import numpy as np
import pytest

from npspec import asymptotics, surfaces
from npspec.asymptotics import AsymptoticReport, coefficient_integral
from npspec.elasticity import LameParams
from npspec.extraction import curvature_matrices, np_symbol_field
from npspec.surfaces import make_surface, principal_curvatures, surface_quadrature

RNG = np.random.default_rng(20240911)


class TestSignedPowerTrace:
    """The signed power traces Tr[(m)_pm^2] of the coefficient integral:
    _signed_traces on eigenvalue stacks, and the integral on constant
    stand-in symbols of total weight 4 pi, where C_pm = Tr[(m)_pm^2]."""

    def test_diagonal_split(self):
        plus, minus = asymptotics._signed_traces(np.array([[2.0, -3.0, 0.0]]), 0.0, 0)
        assert (plus[0], minus[0]) == (4.0, 9.0)

    def test_similarity_invariance(self):
        # non-normal similarity keeps the (real) spectrum and both traces
        s = np.eye(3) + 0.4 * RNG.normal(size=(3, 3))
        m = s @ np.diag([0.5, -0.2, 0.1]) @ np.linalg.inv(s)
        (cp,), (cm,), _ = _constant_integral([lambda xi: m], np.full(4, np.pi))
        assert cp == pytest.approx(0.26, rel=1e-9)
        assert cm == pytest.approx(0.04, rel=1e-9)

    def test_zero_eigenvalues_belong_to_neither_part(self):
        # within the 1e-12 relative zero cut, on either side of zero
        vals = np.array([[1.0, 0.0, -0.0, 5e-13, -5e-13]])
        plus, minus = asymptotics._signed_traces(vals, 0.0, 0)
        assert (plus[0], minus[0]) == (1.0, 0.0)

    def test_complex_spectrum_rejected(self):
        rot = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        with pytest.raises(ValueError, match="spectrum not real at node 0"):
            _constant_integral([lambda xi: rot], [4.0 * np.pi])

    def test_stack_gives_one_trace_per_matrix(self):
        rng = np.random.default_rng(5)
        mats = []
        for _ in range(6):
            s = np.eye(3) + 0.4 * rng.normal(size=(3, 3))
            lam = rng.uniform(-1.0, 1.0, 3)
            mats.append(s @ np.diag(lam) @ np.linalg.inv(s))
        mats.append(np.diag([1e-3, 0.0, -2e-3]))
        vals = np.linalg.eigvals(np.array(mats))
        got = asymptotics._signed_traces(vals, 0.0, 0)
        for k, keep in enumerate((vals.real > 0.0, vals.real < 0.0)):
            assert got[k].shape == (7,)
            want = np.sum(np.where(keep, vals.real**2, 0.0), axis=-1)
            assert np.allclose(got[k], want, rtol=1e-13, atol=0.0)

    def test_complex_matrix_in_a_stack_rejected(self):
        # the error counts the stack's leading axis from first_node
        rot = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        vals = np.linalg.eigvals(np.array([np.diag([0.3, -0.2, 0.1]), rot, np.eye(3)]))
        with pytest.raises(ValueError, match="spectrum not real at node 8:"):
            asymptotics._signed_traces(vals, 0.0, 7)

    def test_external_scale_admits_negligible_matrices(self):
        noise = np.array([[1e-14j, -1e-14j]])
        with pytest.raises(ValueError):
            asymptotics._signed_traces(noise, 0.0, 0)
        plus, minus = asymptotics._signed_traces(noise, 1.0, 0)
        assert plus[0] < 1e-27 and minus[0] < 1e-27


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
        assert info["angles"] == 64

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

    def test_one_eigensolve_equals_four_trace_calls(self):
        # reference, per root: eigvals on the full grid and on its even
        # rows, each with its own magnitude reference, and numpy sums of
        # the squared positive and negative eigenvalues beyond the zero cut
        rng = np.random.default_rng(8)
        m_evals = []
        for _ in range(2):
            q = rng.normal(size=(3, 3))
            q_inv = np.linalg.inv(q)

            def m_eval(xi, q=q, q_inv=q_inv):
                x, y = xi[..., 0], xi[..., 1]
                spec = np.stack([x, y * y - 0.3, 0.2 * x * y], axis=-1)
                return q @ (spec[..., :, None] * q_inv)

            m_evals.append(m_eval)
        weights = rng.uniform(0.5, 1.5, size=5)
        got_p, got_m, info = _constant_integral(m_evals, weights)
        thetas = 2.0 * np.pi * np.arange(64) / 64
        for r, m_eval in enumerate(m_evals):
            mats = m_eval(np.column_stack([np.cos(thetas), np.sin(thetas)]))
            sums = np.zeros((2, 2))
            for w in weights:
                for k, sub in enumerate((mats, mats[::2])):
                    vals = np.linalg.eigvals(sub)
                    assert np.abs(vals.imag).max() < 1e-12
                    ref = np.maximum(np.abs(vals).max(axis=-1), np.abs(sub).max())
                    cut = 1e-12 * ref[:, None]
                    for s, keep in enumerate((vals.real > cut, vals.real < -cut)):
                        tr = np.sum(np.where(keep, vals.real**2, 0.0), axis=-1)
                        sums[k, s] += w * (2.0 * np.pi / len(sub)) * tr.sum()
            (cp, cm), (cp_h, cm_h) = (2.0 * np.pi) ** -2 / 2 * sums
            assert (got_p[r], got_m[r]) == (cp, cm)
            assert info["angle_drift"][r] == max(abs(cp - cp_h), abs(cm - cm_h)) / max(cp, cm)

    def test_complex_cluster_spectrum_rejected(self):
        rot = 0.1 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            _constant_integral([lambda xi: np.eye(3), lambda xi: rot], [1.0])

    def test_complex_spectrum_error_names_the_node(self, monkeypatch):
        # blocks of two nodes (64 directions each); node 3, the only one
        # with kappa2 on the rotation, sits second in the second block,
        # and the error names its index in the field, not in the block
        rot = 0.1 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        monkeypatch.setattr(surfaces, "_BLOCK_POINTS", 128)
        kappa2 = np.zeros(6)
        kappa2[3] = 1.0
        with pytest.raises(ValueError, match="spectrum not real at node 3:"):
            _curvature_integral([lambda xi: (np.eye(3), rot)], np.ones(6), kappa2, np.ones(6))

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
    @pytest.mark.parametrize(
        "surface",
        [
            make_surface("ellipsoid", a=1.0, b=1.2, c=0.8),
            make_surface("radial_graph", harmonics=[[2, 0, -0.6]]),
            make_surface("radial_graph", harmonics=[[2, 0, 0.3], [3, 1, 0.2]]),
        ],
        ids=["ellipsoid", "dent", "two-harmonic"],
    )
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


class TestAsymptoticReport:
    def test_dict_round_trip(self):
        rep = AsymptoticReport(
            root=1.0 / 6.0,
            side="plus",
            c=1.0 / 36.0,
            d=2.0,
            route="symbol",
            err_estimate=3e-9,
        )
        d = rep.to_dict()
        assert d["root"] == pytest.approx(1.0 / 6.0)
        assert d["side"] == "plus"
        assert d["C"] == pytest.approx(1.0 / 36.0)
        assert d["d"] == 2.0
        assert d["route"] == "symbol"
        assert d["err_estimate"] == pytest.approx(3e-9)
        assert len(d) == 6
