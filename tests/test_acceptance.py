"""Acceptance suite: one test per shipped guarantee, nine in total.

Each test enforces the pinned tolerance for one end-to-end claim, so a
verbose run prints one pass/fail line per criterion.  Expensive
artifacts (dense matrices, eigenvalue sets, extracted symbol fields)
are shared through module fixtures; the whole file runs in a few
minutes on one core.
"""

import time

import numpy as np
import pytest

from npspec.asymptotics import coefficient_integral
from npspec.elasticity import (
    LameParams,
    essential_spectrum,
    lambda_projector,
    np_principal_symbol,
    single_layer_symbol,
    sphere_exact_eigenvalues,
    symmetrizer_symbols,
)
from npspec.extraction import _principal_x_derivative, _principal_xi_derivative, np_symbol_field
from npspec.spectral import (
    assemble_operators,
    certified_multiplicities,
    cluster_windows,
    compactness_check,
    fit_power_law,
    level_multiplicities,
    symmetrize,
)
from npspec.surfaces import make_surface, surface_quadrature
from npspec.symbols import TwoTermSymbol, cluster_symbols, compose, matrix_polynomial

P11 = LameParams(1.0, 1.0)
KK = P11.kk
SPHERE = make_surface("sphere")

# exact-sequence counting setup: deep enough that no family saturates
# inside the tau range (largest index term sits below the smallest tau)
KMAX = 2300
EXACT_TAUS = np.geomspace(1e-3, 5e-2, 32)


def _sphere_pipeline(n):
    quad = surface_quadrature(SPHERE, n)
    k, s = assemble_operators(SPHERE, P11, quad)
    a, _ = symmetrize(k, s, weights=quad.weights)
    return quad, a


def _plus_side_counts(values, root, taus):
    """Counting function of one exact eigenvalue family above a root.

    values[k-1] carries multiplicity 2k+1 (the pattern certified from
    the discretized operator in the counting-law test).  Terms at or
    below the root never enter: the distance filter is strict.
    """
    k = np.arange(1, values.size + 1)
    mult = 2 * k + 1
    dist = values - root
    return np.array([mult[dist > t].sum() for t in taus])


@pytest.fixture(scope="module")
def sphere23():
    # 1058 nodes; general (non-symmetric) eigensolver on purpose, so
    # the imaginary parts are measured rather than true by construction
    t0 = time.perf_counter()
    quad, a = _sphere_pipeline(23)
    ev = np.linalg.eigvals(a)
    return {
        "quad": quad,
        "ev": ev,
        "seconds": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def sphere16_ev():
    _, a = _sphere_pipeline(16)
    return np.linalg.eigvalsh(a)


@pytest.fixture(scope="module")
def anchor_field():
    # 200 nodes x 128 angles on the unit sphere
    t0 = time.perf_counter()
    quad = surface_quadrature(SPHERE, 10)
    field = np_symbol_field(SPHERE, P11, quad, angles=128)
    return field, quad, time.perf_counter() - t0


@pytest.fixture(scope="module")
def exact_sequence_fits():
    lam0, lam_minus, lam_plus = sphere_exact_eigenvalues(P11, KMAX)
    fits = {}
    for root, family in ((0.0, lam0), (-KK, lam_minus), (KK, lam_plus)):
        counts = _plus_side_counts(family, root, EXACT_TAUS)
        fits[root] = fit_power_law(EXACT_TAUS, counts)
    return fits


@pytest.fixture(scope="module")
def material_draws():
    rng = np.random.default_rng(7)
    out = []
    for _ in range(5):
        mu = rng.uniform(0.3, 2.0)
        lam = rng.uniform(-0.5 * mu, 3.0)
        out.append(LameParams(lam, mu))
    return out


def _smooth_symbol(seed):
    """Jet, at (x, xi), of a 2x2 two-term symbol with analytic first
    derivatives."""
    m0, m1, n0 = np.random.default_rng(seed).normal(size=(3, 2, 2))

    def jet(x, xi):
        r = np.hypot(*xi)
        s = np.sin(x[0])
        return TwoTermSymbol(
            a0=m0 + m1 * (s * xi[0] / r),
            a_m1=n0 * (np.cos(x[1]) / r),
            dx_a0=np.stack([m1 * (np.cos(x[0]) * xi[0] / r), np.zeros((2, 2))]),
            dxi_a0=np.stack([m1 * (s * xi[1] ** 2 / r**3), -m1 * (s * xi[0] * xi[1] / r**3)]),
        )

    return jet


def test_criterion_1_algebraic_identity_suite():
    t0 = time.perf_counter()
    eye = np.eye(3)
    xis = [(1.0, 0.0), (0.3, -1.2), (2.0, 1.0), (-0.7, 0.4)]
    for p in (P11, LameParams(2.7, 0.6)):
        # the half gap two ways: material formula vs symbol prefactor
        assert abs(p.kk - np.pi * p.mu * (p.lam_prime - p.mu_prime)) <= 1e-10
        for xi in xis:
            lam = lambda_projector(xi)
            assert np.abs(lam @ lam - lam).max() <= 1e-10
            blk = np.zeros((3, 3))
            blk[:2, :2] = lam
            blk[2, 2] = 1.0
            k0 = np_principal_symbol(p, xi)
            assert np.abs(k0 @ blk - blk @ k0).max() <= 1e-10
            s = single_layer_symbol(p, xi)
            _, q, z = symmetrizer_symbols(p, xi)
            assert np.abs(q @ q + s).max() <= 1e-10
            assert np.abs(z @ q - eye).max() <= 1e-10
    # associativity of the two-term product; analytic derivatives make
    # the product-rule propagation exact, not finite-difference limited
    symbols = [_smooth_symbol(1), _smooth_symbol(2), _smooth_symbol(3)]
    rng = np.random.default_rng(4)
    for _ in range(6):
        x = rng.normal(size=2)
        xi = rng.normal(size=2)
        if np.hypot(*xi) < 0.3:
            xi = xi + 1.0
        a, b, c = (jet(x, xi) for jet in symbols)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.abs(left.a0 - right.a0).max() <= 1e-10
        assert np.abs(left.a_m1 - right.a_m1).max() <= 1e-10
    # spectral mapping: a polynomial of a diagonal matrix acts entrywise
    poly = essential_spectrum(P11)
    diag = np.array([-0.31, -KK, 0.02, KK, 0.4])
    mapped = matrix_polynomial(poly.coefficients(), np.diag(diag))
    got = np.sort(np.linalg.eigvals(mapped).real)
    assert np.abs(got - np.sort(poly(diag))).max() <= 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_flat_symbol_anchor_on_sphere(anchor_field):
    field, quad, seconds = anchor_field
    assert quad.size == field.charts.kappa1.size == 200
    thetas = 2.0 * np.pi * np.arange(128) / 128
    xis = np.column_stack([np.cos(thetas), np.sin(thetas)])
    err = np.abs(field.k0(xis) - np_principal_symbol(P11, xis)).max()
    # measured 7.5e-14: the degree 0 part of the extracted symbol is
    # the flat closed form at every node and direction
    assert err < 1e-4
    assert seconds < 120.0


def test_criterion_3_sphere_spectral_benchmark(sphere23):
    ev = sphere23["ev"]
    assert 3 * sphere23["quad"].size >= 3000
    assert np.abs(ev.imag).max() < 1e-4
    top = np.sort(ev.real)[::-1]
    # head of the zero family at 1/2 (doubled by the coinciding first
    # minus-family eigenvalue) and its second level at 3/10, both to 5%
    assert abs(top[0] - 0.5) < 0.025
    assert abs(top[6] - 0.3) < 0.015
    # accumulation at the three essential spectrum points
    roots, wins = cluster_windows([-KK, 0.0, KK])
    inside = 0
    for (zl, zr) in wins:
        cnt = int(np.sum((ev.real >= zl) & (ev.real <= zr)))
        assert cnt >= 50
        inside += cnt
    assert inside / ev.size > 0.85
    assert sphere23["seconds"] < 600.0


def test_criterion_4_compact_remainder_decay(sphere23):
    out = compactness_check(sphere23["ev"].real, essential_spectrum(P11))
    # cube root decay of the cubic in the operator: slope -1/2 over the
    # central index range (measured -0.39 at this resolution, tightening
    # toward -0.5 on refinement)
    assert -0.65 <= out["decay_slope"] <= -0.35
    assert out["distance_bound_ok"]


def test_criterion_5_counting_law_exponent(
    sphere16_ev, sphere23, exact_sequence_fits
):
    ev_fine = np.sort(sphere23["ev"].real)
    # multiplicities measured from the discretized operator: the second
    # and third zero-family levels resolve cleanly at both grids and
    # certify the odd pattern 2k+1 = 5, 7
    levels = sphere_exact_eigenvalues(P11, 3)[0][1:]
    counts, k_star = certified_multiplicities(
        sphere16_ev, ev_fine, levels, (0.19, 0.42)
    )
    assert list(counts) == [5, 7]
    assert k_star == 2
    # top level 1/2 measures 6 = 3 + 3: first zero-family and first
    # minus-family eigenvalues coincide there
    head, _ = level_multiplicities(ev_fine, [0.5], (0.42, 0.6))
    assert list(head) == [6]
    # deeper levels sit below grid resolution, so the exact eigenvalue
    # formulas carry the certified multiplicity pattern into the
    # asymptotic regime that the dense discretization cannot reach
    for fit in exact_sequence_fits.values():
        assert 1.8 <= fit.h <= 2.2


def _coefficients(params, field, quad):
    return coefficient_integral(params, field.charts.kappa1, field.charts.kappa2, quad.weights)


def test_criterion_6_curvature_sign_law(anchor_field):
    field, quad, _ = anchor_field
    cp, cm, _ = _coefficients(P11, field, quad)
    # strictly convex surface: no spectrum below the roots at this
    # order (measured C- = 0 exactly, C+ = 9/16 and 1/36)
    assert np.all(cp > 0.0)
    assert np.all(cm < 1e-3 * cp)
    dent = make_surface("radial_graph", harmonics={(2, 0): -0.6})
    dquad = surface_quadrature(dent, 8)
    dfield = np_symbol_field(dent, P11, dquad, angles=64)
    cp, cm, _ = _coefficients(P11, dfield, dquad)
    assert np.all(cp > 0.0)
    # the polar dent is concave (both curvatures positive on 32 of the
    # 128 nodes), which switches on approach from below: measured
    # C-/C+ = 9.2e-3 at every root
    assert max(cm / cp) > 1e-3


def test_criterion_7_cross_route_coefficient_match(
    anchor_field, exact_sequence_fits
):
    field, quad, _ = anchor_field
    cp = _coefficients(P11, field, quad)[0][1]
    c_hat = exact_sequence_fits[0.0].c
    # symbol route 0.5625 vs counting route 0.5565: 1.1% apart
    assert abs(cp - c_hat) / c_hat < 0.15


def test_criterion_8_structure_and_symmetry():
    v = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    v1 = np.diag([-1.0, 1.0, 1.0])
    v2 = np.diag([1.0, -1.0, 1.0])
    v12 = np.diag([-1.0, -1.0, 1.0])
    surfaces = [
        SPHERE,
        make_surface("ellipsoid", a=1.0, b=1.15, c=0.9),
        make_surface("radial_graph", harmonics={(2, 0): -0.25}),
    ]
    # 8 directions, closed under the swap and sign reflections used below
    m_angle = 8
    thetas = 2.0 * np.pi * np.arange(m_angle) / m_angle
    xis = np.column_stack([np.cos(thetas), np.sin(thetas)])
    rows, data = [], []
    roots = essential_spectrum(P11)
    for surf in surfaces:
        quad = surface_quadrature(surf, 4)
        assert quad.size >= 10
        field = np_symbol_field(surf, P11, quad, angles=64)
        # the cluster symbols folded from the extracted degree -1 symbol
        k1, k2 = field.charts.kappa1, field.charts.kappa2
        cluster = cluster_symbols(roots, TwoTermSymbol(
            np_principal_symbol(P11, xis), field.km1(xis),
            _principal_x_derivative(P11, k1, k2, xis), _principal_xi_derivative(P11, xis),
        ))
        rows.extend(zip(k1, k2))
        data.extend(np.moveaxis(cluster, -3, 1))
    kap = np.array(rows)
    y = np.array(data)
    n_pts = kap.shape[0]
    with_icept = np.column_stack([np.ones(n_pts), kap])
    for r in range(3):
        yr = y[:, r].reshape(n_pts, -1)
        # curvature linearity: one pair of direction-dependent matrices
        # reproduces the degree -1 symbol at all 96 points (measured
        # relative residual 1e-8)
        coef, *_ = np.linalg.lstsq(kap, yr, rcond=None)
        resid = np.linalg.norm(kap @ coef - yr) / np.linalg.norm(yr)
        assert resid < 0.05
        # and the affine fit puts nothing in the intercept
        coef1, *_ = np.linalg.lstsq(with_icept, yr, rcond=None)
        icept = np.linalg.norm(coef1[0]) / max(
            np.linalg.norm(coef1[1]), np.linalg.norm(coef1[2])
        )
        assert icept < 0.05
        m1 = coef[0].reshape(m_angle, 3, 3)
        m2 = coef[1].reshape(m_angle, 3, 3)
        scale = max(np.abs(m1).max(), np.abs(m2).max())
        # swapping the tangent directions exchanges the two matrices
        # through the row/column transposition v
        exch = max(
            np.abs(m2[s] - v @ m1[(2 - s) % m_angle] @ v).max()
            for s in range(m_angle)
        )
        assert exch < 0.05 * scale
        # reflecting either direction conjugates by the matching sign
        # matrix; theta -> pi - theta, -theta, pi + theta on this grid
        for flip, shift, sign in ((v1, 4, -1), (v2, 0, -1), (v12, 4, 1)):
            worst = max(
                np.abs(
                    m1[(shift + sign * s) % m_angle] - flip @ m1[s] @ flip
                ).max()
                for s in range(m_angle)
            )
            assert worst < 0.05 * scale


def test_criterion_9_material_independence(material_draws):
    quad4 = surface_quadrature(SPHERE, 4)
    c_counting, c_symbol = [], []
    for p in material_draws:
        lam0 = sphere_exact_eigenvalues(p, KMAX)[0]
        fit = fit_power_law(EXACT_TAUS, _plus_side_counts(lam0, 0.0, EXACT_TAUS))
        c_counting.append(fit.c)
        field = np_symbol_field(SPHERE, p, quad4, angles=64)
        c_symbol.append(_coefficients(p, field, quad4)[0][1])
    # the zero-family eigenvalues carry no material constants, so the
    # counting coefficient is bit-identical across the five draws
    assert all(c == c_counting[0] for c in c_counting)
    c_symbol = np.array(c_symbol)
    assert c_symbol.min() > 0.0
    # measured spread 1.1e-15: the integral runs on the closed-form
    # curvature matrices, which carry no extraction noise; the tolerance
    # is kept from the extracted route
    assert c_symbol.max() / c_symbol.min() - 1.0 < 0.10
