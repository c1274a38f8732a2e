"""Elastostatics closed forms.

The double layer kernel is validated against an independent traction
oracle: finite differences of the Kelvin matrix assembled into the
traction operator at the integration point.  Frozen literals are
derived by hand from the closed forms and cross-checked by the
oracles in this file.
"""

import numpy as np
import pytest

from npspec.elasticity import (
    LameParams,
    essential_spectrum,
    kelvin_matrix,
    lambda_projector,
    np_kernel,
    np_principal_symbol,
    single_layer_symbol,
    sphere_exact_eigenvalues,
    symmetrizer_symbols,
)

P11 = LameParams(lam=1.0, mu=1.0)
RNG = np.random.default_rng(42)


class TestLameParams:
    def test_derived_constants(self):
        # lam' = (lam+3mu)/(4 pi mu (lam+2mu)) = 1/(3 pi) at lam = mu = 1
        assert P11.lam_prime == pytest.approx(1.0 / (3.0 * np.pi), rel=1e-14)
        assert P11.mu_prime == pytest.approx(1.0 / (6.0 * np.pi), rel=1e-14)
        assert P11.kk == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert P11.m == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_gap_identity(self):
        # kk = pi mu (lam' - mu') for every admissible material
        for lam, mu in [(1.0, 1.0), (2.0, 0.5), (-0.4, 1.0), (0.0, 3.0)]:
            p = LameParams(lam=lam, mu=mu)
            assert p.kk == pytest.approx(
                np.pi * p.mu * (p.lam_prime - p.mu_prime), rel=1e-14
            )

    def test_admissibility(self):
        with pytest.raises(ValueError):
            LameParams(lam=1.0, mu=0.0)
        with pytest.raises(ValueError):
            LameParams(lam=1.0, mu=-1.0)
        with pytest.raises(ValueError):
            LameParams(lam=-1.0, mu=1.0)
        for lam, mu in [(1.0, np.inf), (np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan)]:
            with pytest.raises(ValueError, match="inadmissible"):
                LameParams(lam=lam, mu=mu)
        LameParams(lam=-0.5, mu=1.0)


class TestKelvin:
    def test_frozen_values(self):
        # hand evaluation at x=(1,0,0), y=(0,1,0): |d| = sqrt(2),
        # R11 = lam'/sqrt2 + mu'/(2 sqrt2) = 5/(12 sqrt2 pi),
        # R12 = -mu'/(2 sqrt2) = -1/(12 sqrt2 pi)
        r = kelvin_matrix(P11, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        assert r[0, 0] == pytest.approx(5.0 / (12.0 * np.sqrt(2) * np.pi), rel=1e-14)
        assert r[0, 1] == pytest.approx(-1.0 / (12.0 * np.sqrt(2) * np.pi), rel=1e-14)

    def test_symmetries_and_homogeneity(self):
        x, y = RNG.normal(size=3), RNG.normal(size=3)
        r = kelvin_matrix(P11, x, y)
        assert np.allclose(r, r.T)
        assert np.allclose(r, kelvin_matrix(P11, y, x))
        assert np.allclose(kelvin_matrix(P11, 3 * x, 3 * y), r / 3.0)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            kelvin_matrix(P11, np.ones(3), np.ones(3))


def _traction_of_kelvin_columns(p, x, y, nu, h=1e-6):
    """FD traction T(d_y, nu) applied to the Kelvin columns R(y - x)."""
    grad = np.zeros((3, 3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        grad[j] = (kelvin_matrix(p, y + e, x) - kelvin_matrix(p, y - e, x)) / (2 * h)
    w = np.zeros((3, 3))
    for q in range(3):
        du = grad[:, :, q]
        div = np.trace(du)
        for i in range(3):
            w[i, q] = p.lam * nu[i] * div + p.mu * sum(
                nu[j] * (du[j, i] + du[i, j]) for j in range(3)
            )
    return w


class TestNpKernel:
    def test_antisymmetric_part_frozen_value(self):
        # x=(0,0,1), y=(1,0,0), nu=(1,0,0): K13 - K31 =
        # mu (lam'-mu') / (2 sqrt2) = 1/(12 sqrt2 pi) at lam = mu = 1
        x = np.array([0.0, 0.0, 1.0])
        y = np.array([1.0, 0.0, 0.0])
        nu = np.array([1.0, 0.0, 0.0])
        k = np_kernel(P11, x, y, nu)
        want = 1.0 / (12.0 * np.sqrt(2) * np.pi)
        assert k[0, 2] - k[2, 0] == pytest.approx(want, rel=1e-13)

    def test_traction_oracle(self):
        # K(x, y) = -(1/2) T(d_y, nu) R(y - x), verified row by row on
        # one batched call over y and nu
        x = RNG.normal(size=3)
        y = x + RNG.normal(size=(5, 3))
        nu = RNG.normal(size=(5, 3))
        nu /= np.linalg.norm(nu, axis=1)[:, None]
        for p in (P11, LameParams(lam=2.0, mu=0.5)):
            k = np_kernel(p, x, y, nu)
            assert k.shape == (5, 3, 3)
            for j in range(5):
                w = _traction_of_kelvin_columns(p, x, y[j], nu[j])
                assert np.abs(k[j] + 0.5 * w).max() < 1e-8 * max(np.abs(w).max(), 1.0)

    def test_homogeneity(self):
        x, y = np.array([0.3, -0.1, 0.8]), np.array([-0.5, 0.4, 0.2])
        nu = np.array([0.0, 0.6, 0.8])
        k = np_kernel(P11, x, y, nu)
        assert np.allclose(np_kernel(P11, 2 * x, 2 * y, nu), k / 4.0)


class TestFlatSymbols:
    def test_principal_symbol_structure(self):
        xi = np.array([1.0, 0.0])
        k = np_principal_symbol(P11, xi)
        # i pi mu (lam'-mu') [[0,0,-1],[0,0,0],[1,0,0]] with
        # pi mu (lam'-mu') = kk = 1/6
        want = (1j / 6.0) * np.array(
            [[0, 0, -1.0], [0, 0, 0], [1.0, 0, 0]]
        )
        assert np.abs(k - want).max() < 1e-15

    def test_principal_symbol_eigenvalues_and_scaling(self):
        for _ in range(4):
            xi = RNG.normal(size=2)
            k = np_principal_symbol(P11, xi)
            assert np.abs(k - k.conj().T).max() < 1e-15
            vals = np.sort(np.linalg.eigvalsh(k))
            assert np.allclose(vals, [-1.0 / 6.0, 0.0, 1.0 / 6.0], atol=1e-14)
            assert np.abs(np_principal_symbol(P11, 5.0 * xi) - k).max() < 1e-15

    def test_single_layer_symbol_eigenvalues(self):
        # at |xi| = 1: {(m-1)/(2 mu) double, -1/(2 mu)} = {-1/3, -1/3, -1/2}
        xi = np.array([0.6, 0.8])
        vals = np.sort(np.linalg.eigvalsh(single_layer_symbol(P11, xi)))
        assert np.allclose(vals, [-0.5, -1.0 / 3.0, -1.0 / 3.0], atol=1e-14)
        for lam, mu in [(2.0, 0.5), (-0.4, 1.0)]:
            p = LameParams(lam=lam, mu=mu)
            v = np.linalg.eigvalsh(single_layer_symbol(p, xi))
            assert v.max() < 0.0

    def test_lambda_projector(self):
        xi = np.array([3.0, -4.0])
        lp = lambda_projector(xi)
        assert np.allclose(lp @ lp, lp)
        assert np.linalg.matrix_rank(lp) == 1
        assert np.allclose(lp @ xi, xi)

    def test_symmetrizer_identities(self):
        for r in (0.5, 1.0, 3.0):
            xi = r * np.array([0.28, -0.96])
            r1, q, z = symmetrizer_symbols(P11, xi)
            s = single_layer_symbol(P11, xi)
            assert np.abs(r1 @ s - np.eye(3)).max() < 1e-12
            assert np.abs(q @ q + s).max() < 1e-12
            assert np.abs(z @ q - np.eye(3)).max() < 1e-12


class TestEssentialSpectrum:
    def test_roots(self):
        poly = essential_spectrum(P11)
        assert poly.roots == (-1.0 / 6.0, 0.0, 1.0 / 6.0)
        assert np.allclose([poly(w) for w in poly.roots], 0.0, atol=1e-16)

    def test_material_dependence(self):
        p = LameParams(lam=2.0, mu=0.5)
        k = 0.5 / (2.0 * (1.0 + 2.0))
        assert essential_spectrum(p).roots == pytest.approx((-k, 0.0, k))


class TestSphereEigenvalues:
    def test_frozen_low_modes(self):
        # lam = mu = 1 hand values: k=1: (1/2, 1/2, -1/18); k=2:
        # (3/10, 1/90, 1/6); note lam_2^+ hits the root kk exactly
        lam0, lam_m, lam_p = sphere_exact_eigenvalues(P11, 2)
        assert lam0[0] == pytest.approx(0.5, rel=1e-14)
        assert lam_m[0] == pytest.approx(0.5, rel=1e-14)
        assert lam_p[0] == pytest.approx(-1.0 / 18.0, rel=1e-14)
        assert lam0[1] == pytest.approx(0.3, rel=1e-14)
        assert lam_m[1] == pytest.approx(1.0 / 90.0, rel=1e-14)
        assert lam_p[1] == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_material_independent_zero_branch(self):
        a = sphere_exact_eigenvalues(P11, 8)[0]
        b = sphere_exact_eigenvalues(LameParams(lam=2.0, mu=0.5), 8)[0]
        assert np.array_equal(a, b)

    def test_approach_from_above(self):
        lam0, lam_m, lam_p = sphere_exact_eigenvalues(P11, 10000)
        kk = P11.kk
        assert np.all(lam0 > 0.0)
        assert np.all(lam_m + kk > 0.0)
        assert np.all(lam_p[2:] - kk > 0.0)
        assert np.all(np.diff(lam0) < 0.0)
        assert np.all(np.diff(lam_m[2:]) < 0.0)
        # lam_k^+ peaks at k=4 for this material, decreases after
        assert np.all(np.diff(lam_p[4:]) < 0.0)

    def test_first_order_tails(self):
        # expansion of the exact formulas: k (lam_k^+- -+ kk) -> kk and
        # k lam_k^0 -> 3/4
        lam0, lam_m, lam_p = sphere_exact_eigenvalues(P11, 10000)
        k = np.arange(1, 10001, dtype=float)
        kk = P11.kk
        assert abs(k[-1] * (lam_p[-1] - kk) - kk) < 1e-3 * kk
        assert abs(k[-1] * (lam_m[-1] + kk) - kk) < 1e-3 * kk
        assert abs(k[-1] * lam0[-1] - 0.75) < 1e-3

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            sphere_exact_eigenvalues(P11, 0)
