"""Two-term matrix symbol calculus on a 2-dimensional base.

A classical zero order symbol is tracked through its two leading
homogeneous terms: a0 of degree 0 and a_m1 of degree -1 in the covector
xi.  All evaluators map chart points x of shape (..., 2) and covectors
xi of shape (..., 2), nonzero, to N x N complex matrices of shape
(..., N, N); the leading axes broadcast, so a stack of frequencies is
evaluated in one call and a single point is the case with no leading
axes.

Composition convention.  The first order composition correction is
the standard one,

    (a # b)_{-1} = a0 b_m1 + a_m1 b0 - i sum_a d_{xi_a} a0 d_{x_a} b0,

and the subprincipal symbol is a_m1 - (i/2) sum_a d_x d_xi a0.  The
sign of the derivative terms is tied to the kernel transform and
frame transport conventions of the extraction module; the pairing
used here is pinned empirically by the exact sphere spectrum (see
the cluster symbol tests).
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

MatrixEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]
# derivative evaluators return an array of shape (..., 2, N, N): one
# matrix per coordinate direction, indexed as [..., al, :, :]
DerivativeEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class TwoTermSymbol:
    """Two leading homogeneous terms of a classical symbol.

    dim is the fiber dimension N (the base is always the 2-plane).
    a0 is positively homogeneous of degree 0, a_m1 of degree -1; both
    map (x, xi) of shape (..., 2) to (..., dim, dim).  dx_a0 / dxi_a0
    optionally supply analytic first derivatives of a0 with shape
    (..., 2, dim, dim); when absent, central finite differences are used
    (tangential on the xi sphere, so degree 0 homogeneity is respected
    exactly).
    """

    dim: int
    a0: MatrixEvaluator
    a_m1: MatrixEvaluator
    dx_a0: Optional[DerivativeEvaluator] = None
    dxi_a0: Optional[DerivativeEvaluator] = None

    def x_derivative(self, x, xi):
        """d a0 / dx as an array of shape (..., 2, dim, dim)."""
        if self.dx_a0 is not None:
            return np.asarray(self.dx_a0(x, xi))
        return _fd_x_derivative(self.a0, x, xi, self.dim)

    def xi_derivative(self, x, xi):
        """d a0 / dxi as an array of shape (..., 2, dim, dim)."""
        if self.dxi_a0 is not None:
            return np.asarray(self.dxi_a0(x, xi))
        return _fd_xi_derivative(self.a0, x, xi, self.dim)


@dataclass(frozen=True)
class SpectralPolynomial:
    """Monic polynomial with simple real roots; the essential spectrum."""

    roots: tuple

    def __post_init__(self):
        r = tuple(float(w) for w in self.roots)
        if len(r) < 1:
            raise ValueError("at least one root required")
        if len(r) > 1:
            gap = min(
                abs(a - b) for i, a in enumerate(r) for b in r[i + 1:]
            )
            if gap <= 0.0:
                raise ValueError("roots must be pairwise distinct")
        object.__setattr__(self, "roots", r)

    @property
    def degree(self):
        return len(self.roots)

    def coefficients(self):
        """Monic coefficients in ascending order."""
        return npoly.polyfromroots(self.roots).real

    def __call__(self, omega):
        return npoly.polyval(omega, self.coefficients())


def _check_fiber(arr, dim):
    # broadcasting a misdeclared fiber size would silently double
    # derivative contractions, so the shape is enforced here
    if arr.shape[-2:] != (dim, dim):
        raise ValueError(
            "symbol evaluator returned shape %r, expected (..., %d, %d)"
            % (arr.shape, dim, dim)
        )
    return arr


def _x_step(x):
    """Finite difference step in x, shape (..., 1): relative to |x|."""
    return 1e-5 * np.maximum(1.0, np.linalg.norm(x, axis=-1))[..., None]


def _fd_x_derivative(f, x, xi, dim):
    x = np.asarray(x, dtype=float)
    h = _x_step(x)
    out = []
    for al in range(2):
        e = h * np.eye(2)[al]
        fp = _check_fiber(np.asarray(f(x + e, xi)), dim)
        fm = _check_fiber(np.asarray(f(x - e, xi)), dim)
        out.append((fp - fm) / (2 * h[..., None]))
    return np.stack(out, axis=-3).astype(complex)


def _fd_xi_derivative(f, x, xi, dim, h=1e-5):
    # a0 is degree 0 homogeneous, so its radial xi-derivative vanishes
    # and the gradient is purely tangential; differencing along the
    # circle direction preserves this exactly.
    xi = np.asarray(xi, dtype=float)
    r = np.linalg.norm(xi, axis=-1)[..., None]
    if np.any(r == 0.0):
        raise ValueError("xi = 0 rejected")
    tang = np.stack([-xi[..., 1], xi[..., 0]], axis=-1) / r
    phi = h
    fp = _check_fiber(np.asarray(f(x, np.cos(phi) * xi + np.sin(phi) * r * tang)), dim)
    fm = _check_fiber(np.asarray(f(x, np.cos(phi) * xi - np.sin(phi) * r * tang)), dim)
    dphi = (fp - fm) / (2 * phi)
    # grad = (dphi / r) * tangent direction
    out = dphi[..., None, :, :] * tang[..., :, None, None] / r[..., None, None]
    return out.astype(complex)


def _lead_shape(x, xi):
    return np.broadcast_shapes(np.shape(x)[:-1], np.shape(xi)[:-1])


def identity_symbol(dim):
    """Symbol of the identity operator on a dim-vector fiber."""
    eye = np.eye(dim, dtype=complex)
    zder = np.zeros((2, dim, dim), dtype=complex)

    def const(m):
        return lambda x, xi: np.broadcast_to(m, _lead_shape(x, xi) + m.shape).copy()

    return TwoTermSymbol(
        dim=dim,
        a0=const(eye),
        a_m1=const(0.0 * eye),
        dx_a0=const(zder),
        dxi_a0=const(zder),
    )


def _axis(d, al):
    """Matrices of derivative direction al from a (..., 2, N, N) array."""
    return d[..., al, :, :]


def compose(a, b):
    """Two-term symbol of the operator product.

    (a # b)_0   = a0 b0
    (a # b)_{-1} = a0 b_m1 + a_m1 b0 - i sum_a d_{xi_a} a0 d_{x_a} b0.

    Derivative evaluators of the product are propagated by the product
    rule, so composites can be composed again without accuracy loss.
    """
    if a.dim != b.dim:
        raise ValueError("fiber dimensions differ: %d vs %d" % (a.dim, b.dim))
    dim = a.dim

    def c0(x, xi):
        return np.asarray(a.a0(x, xi)) @ np.asarray(b.a0(x, xi))

    def c_m1(x, xi):
        a0 = np.asarray(a.a0(x, xi))
        b0 = np.asarray(b.a0(x, xi))
        val = a0 @ np.asarray(b.a_m1(x, xi)) + np.asarray(a.a_m1(x, xi)) @ b0
        dxi_a = a.xi_derivative(x, xi)
        dx_b = b.x_derivative(x, xi)
        for al in range(2):
            val = val - 1j * _axis(dxi_a, al) @ _axis(dx_b, al)
        return val

    def product_rule(da, db, x, xi):
        a0 = np.asarray(a.a0(x, xi))[..., None, :, :]
        b0 = np.asarray(b.a0(x, xi))[..., None, :, :]
        return da @ b0 + a0 @ db

    def dx_c0(x, xi):
        return product_rule(a.x_derivative(x, xi), b.x_derivative(x, xi), x, xi)

    def dxi_c0(x, xi):
        return product_rule(a.xi_derivative(x, xi), b.xi_derivative(x, xi), x, xi)

    return TwoTermSymbol(dim=dim, a0=c0, a_m1=c_m1, dx_a0=dx_c0, dxi_a0=dxi_c0)


def shift(a, omega):
    """Symbol of A - omega: subtracts omega E from a0, keeps a_m1."""
    omega = float(omega)
    eye = np.eye(a.dim, dtype=complex)

    def s0(x, xi):
        return np.asarray(a.a0(x, xi)) - omega * eye

    return TwoTermSymbol(
        dim=a.dim,
        a0=s0,
        a_m1=a.a_m1,
        dx_a0=a.x_derivative,
        dxi_a0=a.xi_derivative,
    )


def projector_polynomial(p, iota):
    """Coefficients (ascending) of p_iota(w) = (w - w_i) prod_{l != i} (w - w_l)^2.

    The degree 2L-1 monic polynomial vanishing simply at the selected
    root and doubly at every other root; p_iota'(w_i) equals
    prod_{l != i} (w_i - w_l)^2 > 0.
    """
    roots = _poly_roots(p)
    if not 0 <= iota < len(roots):
        raise IndexError("root index out of range")
    ext = [roots[iota]]
    for l, w in enumerate(roots):
        if l != iota:
            ext.extend([w, w])
    return npoly.polyfromroots(ext).real


def degenerate_polynomial(p, iota, l):
    """Coefficients of (w - w_i) prod_{l' != i} (w - w_{l'})^(l+1).

    Replacement polynomial for degeneracy order l >= 2; degree
    (L-1)(l+1) + 1.
    """
    if l < 2:
        raise ValueError("degeneracy order must be >= 2")
    roots = _poly_roots(p)
    if not 0 <= iota < len(roots):
        raise IndexError("root index out of range")
    ext = [roots[iota]]
    for j, w in enumerate(roots):
        if j != iota:
            ext.extend([w] * (l + 1))
    return npoly.polyfromroots(ext).real


def _poly_roots(p):
    if isinstance(p, SpectralPolynomial):
        return list(p.roots)
    return [float(w) for w in p]


def root_derivative_scale(p, iota):
    """p_iota'(w_iota) = prod_{l != iota} (w_iota - w_l)^2."""
    roots = _poly_roots(p)
    w = roots[iota]
    out = 1.0
    for l, wl in enumerate(roots):
        if l != iota:
            out *= (w - wl) ** 2
    return out


def subprincipal(a):
    """Evaluator of the subprincipal symbol a_m1 - (i/2) sum d_x d_xi a0.

    The mixed second derivative is taken by central differences of the
    xi-derivative in x; analytic dxi_a0 is used when available.
    """

    def a_sub(x, xi):
        x = np.asarray(x, dtype=float)
        h = _x_step(x)
        val = np.asarray(a.a_m1(x, xi), dtype=complex)
        for al in range(2):
            e = h * np.eye(2)[al]
            dp = _axis(a.xi_derivative(x + e, xi), al)
            dm = _axis(a.xi_derivative(x - e, xi), al)
            val = val - 0.5j * (dp - dm) / (2 * h[..., None])
        return val

    return a_sub


def build_bi_symbol(a, p, iota, order0_tol=1e-6):
    """Order -1 principal symbol of p_iota(A) for a polynomially compact A.

    With q_l = a0 - w_l, y0 = prod_{l != iota} q_l^2 and y_m1 the order
    -1 term of that product, the returned symbol has

        b_m1 = (a0 - w_iota) y_m1 + a_m1 y0 - i d_xi a0 . d_x y0.

    The nominal order 0 part (a0 - w_iota) y0 = p_iota(a0) must vanish;
    it is evaluated alongside and a ValueError is raised when its norm
    exceeds order0_tol at any evaluated point (the input is then not
    polynomially compact with the given roots).  The returned
    TwoTermSymbol stores that residual as its a0 slot and b_m1 as its
    a_m1 slot, so the leading live term has degree -1.
    """
    roots = _poly_roots(p)
    if not 0 <= iota < len(roots):
        raise IndexError("root index out of range")
    others = [w for l, w in enumerate(roots) if l != iota]
    w_i = roots[iota]
    dim = a.dim
    eye = np.eye(dim, dtype=complex)

    def pieces(x, xi):
        a0 = np.asarray(a.a0(x, xi), dtype=complex)
        am1 = np.asarray(a.a_m1(x, xi), dtype=complex)
        dxi = a.xi_derivative(x, xi)
        dx = a.x_derivative(x, xi)
        q = [a0 - w * eye for w in others]
        q2 = [m @ m for m in q]
        n = len(others)

        # u carries the internal xi-x contraction of one squared factor;
        # v/w keep the derivative direction open for cross contractions
        u = -1j * _axis(dxi, 0) @ _axis(dx, 0) - 1j * _axis(dxi, 1) @ _axis(dx, 1)
        v = [[_axis(dxi, al) @ m + m @ _axis(dxi, al) for m in q] for al in range(2)]
        wd = [[_axis(dx, al) @ m + m @ _axis(dx, al) for m in q] for al in range(2)]

        def prod(mats):
            out = eye
            for m in mats:
                out = out @ m
            return out

        y0 = prod(q2)

        y_m1 = np.zeros_like(a0)
        for j in range(n):
            mid = u + q[j] @ am1 + am1 @ q[j]
            y_m1 = y_m1 + prod(q2[:j]) @ mid @ prod(q2[j + 1:])
        for j in range(n):
            for l in range(j + 1, n):
                for al in range(2):
                    y_m1 = y_m1 - 1j * (
                        prod(q2[:j]) @ v[al][j] @ prod(q2[j + 1:l])
                        @ wd[al][l] @ prod(q2[l + 1:])
                    )

        residual = (a0 - w_i * eye) @ y0
        b = (a0 - w_i * eye) @ y_m1 + am1 @ y0
        for al in range(2):
            dxy0 = np.zeros_like(_axis(dx, al))
            for j in range(n):
                dxy0 = dxy0 + prod(q2[:j]) @ wd[al][j] @ prod(q2[j + 1:])
            b = b - 1j * _axis(dxi, al) @ dxy0
        return residual, b

    def residual0(x, xi):
        return pieces(x, xi)[0]

    def b_m1(x, xi):
        residual, b = pieces(x, xi)
        res = np.linalg.norm(residual, 2, axis=(-2, -1)).max()
        if res > order0_tol:
            raise ValueError(
                "order 0 residual %.3e exceeds %.1e: principal symbol "
                "eigenvalues do not match the given roots" % (res, order0_tol)
            )
        return b

    return TwoTermSymbol(dim=dim, a0=residual0, a_m1=b_m1)


def detect_degeneracy(b, samples, tol=1e-6):
    """Whether the order -1 symbol vanishes on a sample of the cosphere.

    Returns (flag, max_norm): flag is True when the largest operator
    norm of b.a_m1 over the samples stays below tol.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("empty sample set")
    worst = 0.0
    for x, xi in samples:
        worst = max(worst, float(np.linalg.norm(np.asarray(b.a_m1(x, xi)), 2)))
    return worst < tol, worst


def matrix_polynomial(coeffs, m):
    """Evaluate a scalar polynomial (ascending coefficients) on a matrix."""
    m = np.asarray(m, dtype=complex)
    out = np.zeros_like(m)
    power = np.eye(m.shape[0], dtype=complex)
    for c in coeffs:
        out = out + c * power
        power = power @ m
    return out
