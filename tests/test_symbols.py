"""Two-term symbol algebra tests.

Derived expected values are produced by independent finite difference
oracles inside the tests before being compared against the module;
frozen literals carry a comment naming their oracle.
"""

import numpy as np
import pytest

from npspec.symbols import (
    SpectralPolynomial,
    TwoTermSymbol,
    cluster_symbols,
    compose,
    degenerate_polynomial,
    detect_degeneracy,
    identity_symbol,
    matrix_polynomial,
    projector_polynomial,
    root_derivative_scale,
    shift,
    subprincipal,
)

RNG = np.random.default_rng(20240817)


def _mat_symbol(entries0, entries1=None):
    """Matrix symbol from entrywise closures f(x, xi)."""
    n = len(entries0)

    def a0(x, xi):
        return np.array([[entries0[i][j](x, xi) for j in range(n)] for i in range(n)])

    def a_m1(x, xi):
        if entries1 is None:
            return np.zeros((n, n))
        return np.array([[entries1[i][j](x, xi) for j in range(n)] for i in range(n)])

    return TwoTermSymbol(dim=n, a0=a0, a_m1=a_m1)


def _random_points(k, dim=2, rmin=0.5, rmax=2.0):
    xs = RNG.normal(size=(k, dim))
    phis = RNG.uniform(0.0, 2.0 * np.pi, size=k)
    rs = RNG.uniform(rmin, rmax, size=k)
    xis = np.column_stack([rs * np.cos(phis), rs * np.sin(phis)])
    return xs, xis


class TestComposition:
    def test_identity_is_neutral(self):
        s = lambda x, xi: np.sin(x[0] + 0.3 * x[1]) * xi[0] / np.hypot(*xi)
        t = lambda x, xi: np.cos(x[1]) / np.hypot(*xi)
        a = _mat_symbol([[s]], [[t]])
        e = identity_symbol(1)
        for left in (compose(a, e), compose(e, a)):
            for x, xi in zip(*_random_points(5)):
                assert abs(left.a0(x, xi) - a.a0(x, xi)).max() < 1e-12
                assert abs(left.a_m1(x, xi) - a.a_m1(x, xi)).max() < 1e-9

    def test_x_independent_symbols_compose_pointwise(self):
        f = lambda x, xi: xi[0] * xi[1] / (xi @ xi)
        g = lambda x, xi: xi[1] ** 2 / (xi @ xi)
        h = lambda x, xi: 1.0 / np.hypot(*xi)
        a = _mat_symbol([[f]], [[h]])
        b = _mat_symbol([[g]], [[h]])
        c = compose(a, b)
        x = np.zeros(2)
        xi = np.array([1.3, -0.4])
        want = f(x, xi) * h(x, xi) + h(x, xi) * g(x, xi)
        assert abs(c.a_m1(x, xi)[0, 0] - want) < 1e-10

    def test_micro_example_against_fd_oracle(self):
        # scalar symbols a0 = sin(x1) xi1/|xi|, b0 = xi2/|xi|
        a = _mat_symbol([[lambda x, xi: np.sin(x[0]) * xi[0] / np.hypot(*xi)]])
        b = _mat_symbol([[lambda x, xi: xi[1] / np.hypot(*xi)]])
        x = np.zeros(2)
        xi = np.array([1.0, 1.0])
        # independent oracle: sum_al d_xi_al(b0) d_x_al(a0) by central FD
        h = 1e-6
        contraction = 0.0
        for al in range(2):
            dxi = np.zeros(2)
            dxi[al] = h
            db = (
                (xi + dxi)[1] / np.hypot(*(xi + dxi))
                - (xi - dxi)[1] / np.hypot(*(xi - dxi))
            ) / (2 * h)
            dx = np.zeros(2)
            dx[al] = h
            da = (
                np.sin((x + dx)[0]) * xi[0] / np.hypot(*xi)
                - np.sin((x - dx)[0]) * xi[0] / np.hypot(*xi)
            ) / (2 * h)
            contraction += db * da
        assert abs(contraction - (-0.25)) < 1e-6
        got = compose(b, a).a_m1(x, xi)[0, 0]
        # oracle contraction -1/4; the -i of the kernel transform
        # convention exp(-i z.xi) makes the correction term +i/4
        assert abs(got + 1j * contraction) < 1e-7
        assert abs(got - 0.25j) < 1e-6

    def test_associativity(self):
        def smooth(seed):
            c = np.random.default_rng(seed).normal(size=(2, 2, 4))

            def entry(i, j):
                return lambda x, xi: (
                    c[i, j, 0]
                    + c[i, j, 1] * np.sin(x[0] + 0.2 * x[1])
                    + (c[i, j, 2] * xi[0] + c[i, j, 3] * xi[1]) / np.hypot(*xi)
                )

            def entry1(i, j):
                return lambda x, xi: (
                    c[i, j, 1] * np.cos(x[1]) + c[i, j, 2]
                ) / np.hypot(*xi)

            return _mat_symbol(
                [[entry(0, 0), entry(0, 1)], [entry(1, 0), entry(1, 1)]],
                [[entry1(0, 0), entry1(0, 1)], [entry1(1, 0), entry1(1, 1)]],
            )

        a, b, c = smooth(1), smooth(2), smooth(3)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        for x, xi in zip(*_random_points(6)):
            assert abs(left.a0(x, xi) - right.a0(x, xi)).max() < 1e-10
            assert abs(left.a_m1(x, xi) - right.a_m1(x, xi)).max() < 1e-7

    def test_composition_preserves_homogeneity(self):
        f = lambda x, xi: np.sin(x[0]) * xi[0] / np.hypot(*xi)
        g = lambda x, xi: np.cos(x[1]) * xi[1] / np.hypot(*xi)
        h = lambda x, xi: x[1] / np.hypot(*xi)
        c = compose(_mat_symbol([[f]], [[h]]), _mat_symbol([[g]], [[h]]))
        x = np.array([0.4, -0.2])
        xi = np.array([0.8, 0.6])
        base0 = c.a0(x, xi)
        base1 = c.a_m1(x, xi)
        for t in (0.5, 2.0, 7.0):
            assert abs(c.a0(x, t * xi) - base0).max() < 1e-11
            assert abs(c.a_m1(x, t * xi) - base1 / t).max() < 1e-8

    def test_fiber_shape_enforced(self):
        # a 1x1 evaluator on a dim=2 symbol would broadcast and double
        # derivative contractions; rejected instead
        bad = TwoTermSymbol(
            dim=2,
            a0=lambda x, xi: np.array([[xi[0] / np.hypot(*xi)]]),
            a_m1=lambda x, xi: np.zeros((1, 1)),
        )
        with pytest.raises(ValueError):
            bad.x_derivative(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            bad.xi_derivative(np.zeros(2), np.array([1.0, 0.0]))


def _batched_symbol(seed):
    """2x2 symbol whose closures take (..., 2) points and frequencies;
    no derivative evaluators, so compositions take the finite
    difference path."""
    c = np.random.default_rng(seed).normal(size=(2, 2, 4))

    def a0(x, xi):
        r = np.linalg.norm(xi, axis=-1)[..., None, None]
        lin = c[..., 2] * xi[..., 0, None, None] + c[..., 3] * xi[..., 1, None, None]
        wave = np.sin(x[..., 0] + 0.2 * x[..., 1])[..., None, None]
        return c[..., 0] + c[..., 1] * wave + lin / r

    def a_m1(x, xi):
        r = np.linalg.norm(xi, axis=-1)[..., None, None]
        return (c[..., 1] * np.cos(x[..., 1])[..., None, None] + c[..., 2]) / r

    return TwoTermSymbol(dim=2, a0=a0, a_m1=a_m1)


class TestStackEvaluation:
    def test_composition_on_a_frequency_stack(self):
        c = compose(_batched_symbol(1), _batched_symbol(2))
        x = np.array([0.3, -0.4])
        phi = np.random.default_rng(11).uniform(0.0, 2.0 * np.pi, 64)
        xis = np.column_stack([np.cos(phi), 1.7 * np.sin(phi)])
        for fn in (c.a0, c.a_m1):
            stacked = fn(x, xis)
            rows = np.array([fn(x, xi) for xi in xis])
            assert stacked.shape == (64, 2, 2)
            assert np.abs(stacked - rows).max() < 1e-13 * np.abs(rows).max()
        assert c.x_derivative(x, xis).shape == (64, 2, 2, 2)


class TestShiftAndSubprincipal:
    def test_shift_moves_order_zero_only(self):
        f = lambda x, xi: xi[0] / np.hypot(*xi)
        h = lambda x, xi: 1.0 / np.hypot(*xi)
        a = _mat_symbol([[f]], [[h]])
        s = shift(a, 0.3)
        x, xi = np.zeros(2), np.array([2.0, -1.0])
        assert abs(s.a0(x, xi)[0, 0] - (f(x, xi) - 0.3)) < 1e-14
        assert abs(s.a_m1(x, xi)[0, 0] - h(x, xi)) < 1e-14
        back = shift(s, -0.3)
        assert abs(back.a0(x, xi)[0, 0] - f(x, xi)) < 1e-14

    def test_subprincipal_x_independent(self):
        f = lambda x, xi: xi[0] / np.hypot(*xi)
        h = lambda x, xi: 1.0 / np.hypot(*xi)
        a = _mat_symbol([[f]], [[h]])
        x, xi = np.array([0.3, 0.1]), np.array([1.0, 2.0])
        assert abs(subprincipal(a)(x, xi)[0, 0] - h(x, xi)) < 1e-9

    def test_subprincipal_micro_example(self):
        # a0 = x1 xi1/|xi|, a_m1 = 0 at xi = (0, 1):
        # d_x1 d_xi1 a0 = 1, independent FD oracle below
        a = _mat_symbol([[lambda x, xi: x[0] * xi[0] / np.hypot(*xi)]])
        x, xi = np.zeros(2), np.array([0.0, 1.0])
        h = 1e-5

        # independent oracle: mixed derivative of x1 xi1/|xi| in (x_al, xi_al)
        def val(xv, xiv):
            return xv[0] * xiv[0] / np.hypot(*xiv)

        oracle = 0.0
        for al in range(2):
            acc = 0.0
            for s1 in (+1, -1):
                for s2 in (+1, -1):
                    xx, xxi = x.copy(), xi.copy()
                    xx[al] += s1 * h
                    xxi[al] += s2 * h
                    acc += s1 * s2 * val(xx, xxi)
            oracle += acc / (4 * h * h)
        assert abs(oracle - 1.0) < 1e-6
        got = subprincipal(a)(x, xi)[0, 0]
        # a_sub = a_m1 - (i/2) sum d_x d_xi a0 = -i/2 in the exp(-i z.xi)
        # convention (FD oracle above gives the contraction +1)
        assert abs(got + 0.5j * oracle) < 1e-6
        assert abs(got + 0.5j) < 1e-5

    def test_subprincipal_homogeneity(self):
        a = _mat_symbol([[lambda x, xi: np.sin(x[0]) * xi[1] / np.hypot(*xi)]])
        x, xi = np.array([0.7, -0.1]), np.array([0.6, 0.8])
        base = subprincipal(a)(x, xi)[0, 0]
        for t in (2.0, 5.0):
            assert abs(subprincipal(a)(x, t * xi)[0, 0] - base / t) < 1e-7


class TestSpectralPolynomials:
    def test_distinct_roots_enforced(self):
        with pytest.raises(ValueError):
            SpectralPolynomial(roots=(0.1, 0.1, 0.3))

    def test_monic_coefficients(self):
        p = SpectralPolynomial(roots=(-1.0, 0.0, 2.0))
        coeffs = p.coefficients()
        assert coeffs[-1] == pytest.approx(1.0)
        assert p.degree == 3
        # p(w) = w(w+1)(w-2) = w^3 - w^2 - 2w
        assert np.allclose(coeffs, [0.0, -2.0, -1.0, 1.0])

    def test_projector_polynomial_coefficients(self):
        # roots {-k, 0, k}, k = 1/6; p_1(w) = w (w^2 - k^2)^2 expands to
        # k^4 w - 2 k^2 w^3 + w^5 (oracle: numpy polynomial product)
        k = 1.0 / 6.0
        p = SpectralPolynomial(roots=(-k, 0.0, k))
        q = projector_polynomial(p, 1)
        want = np.polynomial.polynomial.polyfromroots([0.0, -k, -k, k, k])
        assert np.allclose(q, want, atol=1e-15)
        assert np.allclose(q, [0.0, k**4, 0.0, -2.0 * k**2, 0.0, 1.0], atol=1e-15)

    def test_projector_polynomial_linearization(self):
        # near the root, p_1(w) ~ p_1'(0) (w - 0) with slope k^4 = 1/1296;
        # derivative scale prod_{l != 1} (0 - w_l)^2 = k^4
        k = 1.0 / 6.0
        p = SpectralPolynomial(roots=(-k, 0.0, k))
        q = projector_polynomial(p, 1)
        slope = root_derivative_scale(p, 1)
        assert slope == pytest.approx(k**4, rel=1e-12)
        eps = 1e-3
        val = np.polynomial.polynomial.polyval(eps, q)
        assert val == pytest.approx(slope * eps, rel=0.01)

    def test_projector_polynomial_bad_index(self):
        p = SpectralPolynomial(roots=(-1.0, 1.0))
        with pytest.raises(IndexError):
            projector_polynomial(p, 2)

    def test_degenerate_polynomial(self):
        # roots {0, 1, -1}, iota = 0, l = 2: w (w^2-1)^3 =
        # -w + 3 w^3 - 3 w^5 + w^7 (oracle: polynomial expansion)
        p = SpectralPolynomial(roots=(0.0, 1.0, -1.0))
        q = degenerate_polynomial(p, 0, 2)
        assert np.allclose(q, [0.0, -1.0, 0.0, 3.0, 0.0, -3.0, 0.0, 1.0])

    def test_degenerate_contains_projector(self):
        # (w - w_iota) prod (w - w_l)^2 divides (w - w_iota) prod (w - w_l)^3
        p = SpectralPolynomial(roots=(0.0, 1.0, -1.0))
        q2 = projector_polynomial(p, 0)
        q3 = degenerate_polynomial(p, 0, 2)
        quotient, remainder = np.polynomial.polynomial.polydiv(q3, q2)
        assert np.abs(remainder).max() < 1e-12

    def test_degenerate_root_order(self):
        # triple root at w = 1 for l = 2: value and first two FD
        # derivatives vanish, third does not
        p = SpectralPolynomial(roots=(0.0, 1.0, -1.0))
        q = degenerate_polynomial(p, 0, 2)
        pv = lambda w: np.polynomial.polynomial.polyval(w, q)
        h = 1e-3
        d0 = pv(1.0)
        d1 = (pv(1 + h) - pv(1 - h)) / (2 * h)
        d2 = (pv(1 + h) - 2 * pv(1.0) + pv(1 - h)) / h**2
        d3 = (pv(1 + 2 * h) - 2 * pv(1 + h) + 2 * pv(1 - h) - pv(1 - 2 * h)) / (
            2 * h**3
        )
        assert abs(d0) < 1e-14
        assert abs(d1) < 1e-5
        assert abs(d2) < 1e-2
        assert abs(d3) > 10.0

    def test_degenerate_l_validation(self):
        p = SpectralPolynomial(roots=(0.0, 1.0))
        with pytest.raises(ValueError):
            degenerate_polynomial(p, 0, 0)


def _conjugated_symbol(k, seed=7):
    """Symbol with exact constant eigenvalues {0, k, -k} and smooth
    x, xi dependent eigenvectors, plus a smooth degree -1 term."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=6) * 0.3
    d = rng.normal(size=(3, 3))

    def rot(x, xi):
        phi = np.arctan2(xi[1], xi[0])
        al = c[0] * np.sin(x[0]) + c[1] * np.cos(x[1]) + c[2] * np.cos(phi)
        be = c[3] * np.cos(x[0] + x[1]) + c[4] * np.sin(phi) + c[5]
        ca, sa = np.cos(al), np.sin(al)
        cb, sb = np.cos(be), np.sin(be)
        g1 = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
        g2 = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
        return g1 @ g2

    diag = np.diag([0.0, k, -k])

    def a0(x, xi):
        r = rot(x, xi)
        return r @ diag @ r.T

    def a_m1(x, xi):
        s = np.sin(x[0]) + np.cos(2.0 * x[1])
        return (d + s * d.T) / np.hypot(*xi)

    return TwoTermSymbol(dim=3, a0=a0, a_m1=a_m1)


def _jet(a, x, xi):
    """(a0, a_m1, d_x a0, d_xi a0) of a two-term symbol at (x, xi)."""
    return a.a0(x, xi), a.a_m1(x, xi), a.x_derivative(x, xi), a.xi_derivative(x, xi)


class TestClusterSymbol:
    def test_constant_diagonal_symbol_gives_zero(self):
        k = 1.0 / 6.0
        zero = np.zeros((3, 3))
        p = SpectralPolynomial(roots=(-k, 0.0, k))
        der = np.zeros((2, 3, 3))
        m = cluster_symbols(p, np.diag([0.0, k, -k]), zero, der, der)
        assert m.shape == (3, 3, 3)
        assert abs(m).max() < 1e-12

    def test_matches_folded_composition(self):
        # oracle: b_iota = (a - w_iota) # prod_{l != iota} (a - w_l)#(a - w_l)
        # computed by folding compose/shift calls, one root at a time
        k = 1.0 / 6.0
        a = _conjugated_symbol(k)
        p = SpectralPolynomial(roots=(-k, 0.0, k))
        folded = []
        for iota in range(3):
            others = [r for j, r in enumerate(p.roots) if j != iota]
            acc = None
            for r in others:
                sq = compose(shift(a, r), shift(a, r))
                acc = sq if acc is None else compose(acc, sq)
            folded.append(compose(shift(a, p.roots[iota]), acc))
        for x, xi in zip(*_random_points(7)):
            m = cluster_symbols(p, *_jet(a, x, xi))
            assert m.shape == (3, 3, 3)
            for iota, b in enumerate(folded):
                assert abs(b.a0(x, xi)).max() < 1e-10
                want = b.a_m1(x, xi) / root_derivative_scale(p, iota)
                assert abs(m[iota] - want).max() < 1e-10

    def test_order_zero_residual_guard(self):
        # eigenvalue 5e-3 off the root 0: the residual at that root,
        # about p_1'(0) 5e-3 = 8e-6, is off; the other two roots vanish
        # there doubly, so their residuals (about 2e-7) pass
        p = SpectralPolynomial(roots=(-0.2, 0.0, 0.2))
        zero, der = np.zeros((3, 3)), np.zeros((2, 3, 3))
        a0 = np.diag([5e-3, 0.2, -0.2])
        with pytest.raises(ValueError, match="at root 0 "):
            cluster_symbols(p, a0, zero, der, der)
        with pytest.raises(ValueError, match="at root 0 "):
            cluster_symbols(p, np.stack([np.diag([0.0, 0.2, -0.2]), a0]), zero, der, der)
        assert np.abs(cluster_symbols(p, np.diag([0.0, 0.2, -0.2]), zero, der, der)).max() < 1e-14

    def test_detect_degeneracy(self):
        zero = TwoTermSymbol(
            dim=3,
            a0=lambda x, xi: np.zeros((3, 3)),
            a_m1=lambda x, xi: np.zeros((3, 3)),
        )
        xs, xis = _random_points(5)
        flag, worst = detect_degeneracy(zero, list(zip(xs, xis)))
        assert flag and worst < 1e-15
        small = TwoTermSymbol(
            dim=3,
            a0=lambda x, xi: np.zeros((3, 3)),
            a_m1=lambda x, xi: 1e-9 * np.eye(3),
        )
        flag, worst = detect_degeneracy(small, list(zip(xs, xis)), tol=1e-6)
        assert flag
        big = TwoTermSymbol(
            dim=3,
            a0=lambda x, xi: np.zeros((3, 3)),
            a_m1=lambda x, xi: np.eye(3),
        )
        flag, worst = detect_degeneracy(big, list(zip(xs, xis)), tol=1e-6)
        assert not flag and worst == pytest.approx(1.0)
        with pytest.raises(ValueError):
            detect_degeneracy(zero, [])


class TestMatrixPolynomial:
    def test_against_eigendecomposition(self):
        m = np.diag([0.3, -0.2, 0.05])
        coeffs = [0.0, -2.0, 0.0, 1.0]
        got = matrix_polynomial(coeffs, m)
        want = np.diag(np.polynomial.polynomial.polyval(np.diag(m), coeffs))
        assert np.allclose(got, want)
