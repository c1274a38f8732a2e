"""Two-term symbol algebra tests.

Symbols enter as jets: the arrays (a0, a_m1, d_x a0, d_xi a0) at a set
of points.  Jets of analytic symbols carry their analytic derivatives;
where only the algebra is checked, the jets are random arrays.  Derived
expected values are produced by independent oracles inside the tests;
frozen literals carry a comment naming their oracle.
"""

from dataclasses import astuple, replace

import numpy as np
import pytest

from npspec.symbols import (
    SpectralPolynomial,
    TwoTermSymbol,
    cluster_symbols,
    compose,
    matrix_polynomial,
    root_derivative_scale,
)

RNG = np.random.default_rng(20240817)


def _random_jet(lead, n, rng=RNG):
    """Jet of random complex arrays with leading shape lead."""

    def draw(*shape):
        return rng.normal(size=lead + shape) + 1j * rng.normal(size=lead + shape)

    return TwoTermSymbol(draw(n, n), draw(n, n), draw(2, n, n), draw(2, n, n))


def _scalar_jet(s, ds, k, h, xi):
    """1 x 1 jet of a0 = s xi_k/|xi| and a_m1 = h/|xi| at one point.

    s and h are the values of smooth functions of x there and ds the x
    gradient of s; d_xi (xi_k/|xi|) = (e_k - xi_k xi/|xi|^2)/|xi|.
    """
    r = np.hypot(*xi)
    u = xi[k] / r
    du = (np.eye(2)[k] - u * xi / r) / r

    def m(v):
        return np.reshape(v, np.shape(v) + (1, 1))

    return TwoTermSymbol(m(s * u), m(h / r), m(np.asarray(ds) * u), m(s * du))


def _max_gap(a, b):
    """Largest entrywise difference over the four slots of two jets."""
    return max(np.abs(p - q).max() for p, q in zip(astuple(a), astuple(b)))


class TestComposition:
    def test_identity_is_neutral(self):
        a = _random_jet((5,), 3)
        zero = np.zeros((5, 2, 3, 3))
        e = TwoTermSymbol(np.broadcast_to(np.eye(3), (5, 3, 3)), zero[:, 0], zero, zero)
        for c in (compose(a, e), compose(e, a)):
            assert _max_gap(c, a) < 1e-14

    def test_x_independent_symbols_compose_pointwise(self):
        # a0 = xi1 xi2/|xi|^2, b0 = xi2^2/|xi|^2, a_m1 = b_m1 = 1/|xi|:
        # with d_x b0 = 0 the correction term vanishes
        xi = np.array([1.3, -0.4])
        r2 = xi @ xi
        f, g, h = xi[0] * xi[1] / r2, xi[1] ** 2 / r2, 1.0 / np.sqrt(r2)
        df = np.array([xi[1] * (xi[1] ** 2 - xi[0] ** 2), xi[0] * (xi[0] ** 2 - xi[1] ** 2)]) / r2**2
        dg = np.array([-2.0 * xi[0] * xi[1] ** 2, 2.0 * xi[0] ** 2 * xi[1]]) / r2**2
        zero = np.zeros((2, 1, 1))
        a = TwoTermSymbol(np.full((1, 1), f), np.full((1, 1), h), zero, df.reshape(2, 1, 1))
        b = TwoTermSymbol(np.full((1, 1), g), np.full((1, 1), h), zero, dg.reshape(2, 1, 1))
        c = compose(a, b)
        assert abs(c.a0[0, 0] - f * g) < 1e-15
        assert abs(c.a_m1[0, 0] - (f * h + h * g)) < 1e-14
        assert np.abs(c.dxi_a0[:, 0, 0] - (df * g + f * dg)).max() < 1e-15
        assert np.abs(c.dx_a0).max() == 0.0

    def test_micro_example_against_fd_oracle(self):
        # scalar symbols a0 = sin(x1) xi1/|xi|, b0 = xi2/|xi|
        x = np.zeros(2)
        xi = np.array([1.0, 1.0])
        a = _scalar_jet(np.sin(x[0]), (np.cos(x[0]), 0.0), 0, 0.0, xi)
        b = _scalar_jet(1.0, (0.0, 0.0), 1, 0.0, xi)
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
        got = compose(b, a).a_m1[0, 0]
        # oracle contraction -1/4; the -i of the kernel transform
        # convention exp(-i z.xi) makes the correction term +i/4
        assert abs(got + 1j * contraction) < 1e-7
        assert abs(got - 0.25j) < 1e-15

    def test_associativity(self):
        # the two-term product with product-rule derivatives is exactly
        # associative, so random jets check the algebra to rounding
        a, b, c = (_random_jet((6,), 2) for _ in range(3))
        assert _max_gap(compose(compose(a, b), c), compose(a, compose(b, c))) < 1e-12

    def test_composition_preserves_homogeneity(self):
        # a0 = sin(x1) xi1/|xi|, b0 = cos(x2) xi2/|xi|, a_m1 = b_m1 = x2/|xi|
        x = np.array([0.4, -0.2])

        def product(xi):
            a = _scalar_jet(np.sin(x[0]), (np.cos(x[0]), 0.0), 0, x[1], xi)
            b = _scalar_jet(np.cos(x[1]), (0.0, -np.sin(x[1])), 1, x[1], xi)
            return compose(a, b)

        xi = np.array([0.8, 0.6])
        base = product(xi)
        for t in (0.5, 2.0, 7.0):
            c = product(t * xi)
            assert np.abs(c.a0 - base.a0).max() < 1e-15
            assert np.abs(c.a_m1 - base.a_m1 / t).max() < 1e-15
            assert np.abs(c.dx_a0 - base.dx_a0).max() < 1e-15
            assert np.abs(c.dxi_a0 - base.dxi_a0 / t).max() < 1e-15


class TestStackEvaluation:
    def test_composition_on_a_frequency_stack(self):
        a, b = _random_jet((64,), 2), _random_jet((64,), 2)
        c = compose(a, b)
        rows = [
            compose(*(TwoTermSymbol(*(v[i] for v in astuple(s))) for s in (a, b)))
            for i in range(64)
        ]
        for stacked, want in zip(astuple(c), zip(*map(astuple, rows))):
            want = np.array(want)
            assert stacked.shape == want.shape
            assert np.abs(stacked - want).max() < 1e-13 * np.abs(want).max()
        assert c.dx_a0.shape == (64, 2, 2, 2)


class TestSpectralPolynomials:
    def test_distinct_roots_enforced(self):
        with pytest.raises(ValueError):
            SpectralPolynomial(roots=(0.1, 0.1, 0.3))

    def test_monic_coefficients(self):
        p = SpectralPolynomial(roots=(-1.0, 0.0, 2.0))
        coeffs = p.coefficients()
        assert coeffs[-1] == pytest.approx(1.0)
        assert len(coeffs) == 4
        # p(w) = w(w+1)(w-2) = w^3 - w^2 - 2w
        assert np.allclose(coeffs, [0.0, -2.0, -1.0, 1.0])

    def test_root_derivative_scale(self):
        # roots {-k, 0, k}, k = 1/6, at the zero root: prod_{l != 1}
        # (0 - w_l)^2 = k^4 (oracle: the squared gaps by hand)
        k = 1.0 / 6.0
        p = SpectralPolynomial(roots=(-k, 0.0, k))
        assert root_derivative_scale(p, 1) == pytest.approx(k**4, rel=1e-12)


def _conjugated_jet(roots, lead, seed=7):
    """Jet whose a0 has exactly the eigenvalues roots at every point,
    with random orthogonal eigenvectors.  The order -1 term and the
    derivatives are random: the fold identity is algebraic."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=lead + (3, 3)))
    a0 = q @ np.diag(roots) @ np.swapaxes(q, -1, -2)
    draw = lambda *shape: rng.normal(size=lead + shape)
    return TwoTermSymbol(a0, draw(3, 3), draw(2, 3, 3), draw(2, 3, 3))


def _constant_jet(a0):
    """Jet of an x and xi independent a0 with no order -1 term."""
    n = a0.shape[-1]
    return TwoTermSymbol(a0, np.zeros((n, n)), np.zeros((2, n, n)), np.zeros((2, n, n)))


class TestClusterSymbol:
    def test_constant_diagonal_symbol_gives_zero(self):
        k = 1.0 / 6.0
        p = SpectralPolynomial(roots=(-k, 0.0, k))
        m = cluster_symbols(p, _constant_jet(np.diag([0.0, k, -k])))
        assert m.shape == (3, 3, 3)
        assert abs(m).max() < 1e-12

    def test_matches_folded_composition(self):
        # oracle: b_iota = (a - w_iota) # prod_{l != iota} (a - w_l)#(a - w_l)
        # computed by folding compose calls, one root at a time
        k = 1.0 / 6.0
        p = SpectralPolynomial(roots=(-k, 0.0, k))
        a = _conjugated_jet([0.0, k, -k], (7,))
        shift = lambda w: replace(a, a0=a.a0 - w * np.eye(3))
        m = cluster_symbols(p, a)
        assert m.shape == (7, 3, 3, 3)
        for iota, root in enumerate(p.roots):
            acc = None
            for r in (w for j, w in enumerate(p.roots) if j != iota):
                sq = compose(shift(r), shift(r))
                acc = sq if acc is None else compose(acc, sq)
            b = compose(shift(root), acc)
            assert np.abs(b.a0).max() < 1e-10
            want = b.a_m1 / root_derivative_scale(p, iota)
            assert np.abs(m[:, iota] - want).max() < 1e-10

    def test_order_zero_residual_guard(self):
        # eigenvalue 5e-3 off the root 0: the residual at that root,
        # about p_1'(0) 5e-3 = 8e-6, is off; the other two roots vanish
        # there doubly, so their residuals (about 2e-7) pass
        p = SpectralPolynomial(roots=(-0.2, 0.0, 0.2))
        good, bad = np.diag([0.0, 0.2, -0.2]), np.diag([5e-3, 0.2, -0.2])
        with pytest.raises(ValueError, match="at root 0 "):
            cluster_symbols(p, _constant_jet(bad))
        with pytest.raises(ValueError, match="at root 0 "):
            cluster_symbols(p, _constant_jet(np.stack([good, bad])))
        assert np.abs(cluster_symbols(p, _constant_jet(good))).max() < 1e-14

    def test_unbroadcast_flat_terms_fold_bit_for_bit(self):
        # a0 and dxi_a0 without the node axis of a_m1 and dx_a0 (the flat
        # terms are the same at every node) give the same bits as when
        # broadcast to every node
        k = 1.0 / 6.0
        p = SpectralPolynomial(roots=(-k, 0.0, k))
        flat = _conjugated_jet([0.0, k, -k], (7,))
        rng = np.random.default_rng(11)
        draw = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        am1, dx = draw(4, 7, 3, 3), draw(4, 7, 2, 3, 3)
        lean = TwoTermSymbol(flat.a0, am1, dx, flat.dxi_a0)
        full = TwoTermSymbol(
            np.broadcast_to(flat.a0, (4, 7, 3, 3)), am1, dx,
            np.broadcast_to(flat.dxi_a0, (4, 7, 2, 3, 3)),
        )
        got = cluster_symbols(p, lean)
        assert got.shape == (4, 7, 3, 3, 3)
        assert np.array_equal(got, cluster_symbols(p, full))

    def test_order_zero_guard_with_unbroadcast_a0(self):
        p = SpectralPolynomial(roots=(-0.2, 0.0, 0.2))
        bad = np.diag([5e-3, 0.2, -0.2])
        jet = TwoTermSymbol(bad, np.zeros((4, 3, 3)), np.zeros((4, 2, 3, 3)), np.zeros((2, 3, 3)))
        with pytest.raises(ValueError, match="at root 0 "):
            cluster_symbols(p, jet)


class TestMatrixPolynomial:
    def test_against_eigendecomposition(self):
        m = np.diag([0.3, -0.2, 0.05])
        coeffs = [0.0, -2.0, 0.0, 1.0]
        got = matrix_polynomial(coeffs, m)
        want = np.diag(np.polynomial.polynomial.polyval(np.diag(m), coeffs))
        assert np.allclose(got, want)
