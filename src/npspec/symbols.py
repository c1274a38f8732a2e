"""Two-term matrix symbol calculus on a 2-dimensional base.

A classical zero order symbol is tracked through its two leading
homogeneous terms: a0 of degree 0 and a_m1 of degree -1 in the covector
xi.  All evaluators map chart points x of shape (..., 2) and covectors
xi of shape (..., 2), nonzero, to N x N complex matrices of shape
(..., N, N); the leading axes broadcast, so a stack of frequencies is
evaluated in one call and a single point is the case with no leading
axes.

Composition convention.  The two-term product is

    (a # b)_0    = a0 b0,
    (a # b)_{-1} = a0 b_m1 + a_m1 b0 - i sum_a d_{xi_a} a0 d_{x_a} b0,

with first derivatives of (a # b)_0 by the product rule.  Both are
written once, as array functions of the operands' jets; compose calls
them per slot and cluster_symbols folds them over the factors of
p_iota(A), for every root at once on one evaluation of a's jet.  The
subprincipal symbol is a_m1 - (i/2) sum_a d_x d_xi a0.
The sign of the derivative terms is tied to the kernel transform and
frame transport conventions of the extraction module; it is pinned by
the exact sphere spectrum (see the cluster symbol tests).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

MatrixEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]
# derivative evaluators return an array of shape (..., 2, N, N): one
# matrix per coordinate direction, indexed as [..., al, :, :]
DerivativeEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]

# largest accepted norm of the order 0 part p_iota(a0) of a cluster symbol
_ORDER0_TOL = 1e-6


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
    """Central differences in x of the evaluator f.  The direction axis
    goes before f's own trailing axes: (..., 2, N, N) for a matrix
    evaluator, (..., 2, 2, N, N) for a derivative evaluator."""
    x = np.asarray(x, dtype=float)
    h = _x_step(x)
    out = []
    for al in range(2):
        e = h * np.eye(2)[al]
        fp = _check_fiber(np.asarray(f(x + e, xi)), dim)
        fm = _check_fiber(np.asarray(f(x - e, xi)), dim)
        tail = fp.ndim - len(_lead_shape(x, xi))
        out.append((fp - fm) / (2 * h.reshape(h.shape[:-1] + (1,) * tail)))
    return np.stack(out, axis=-1 - tail).astype(complex)


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


def _product_m1(a0, a_m1, dxi_a0, b0, b_m1, dx_b0):
    """Order -1 term of a # b from the operands' jets: a0, a_m1, b0,
    b_m1 of shape (..., N, N), dxi_a0 and dx_b0 of shape (..., 2, N, N)."""
    return a0 @ b_m1 + a_m1 @ b0 - 1j * np.sum(dxi_a0 @ dx_b0, axis=-3)


def _product_rule(da, a0, db, b0):
    """Derivative (..., 2, N, N) of a0 b0 from the factors and their
    derivatives da, db of shape (..., 2, N, N)."""
    return da @ b0[..., None, :, :] + a0[..., None, :, :] @ db


def compose(a, b):
    """Two-term symbol of the operator product.

    (a # b)_0   = a0 b0
    (a # b)_{-1} = a0 b_m1 + a_m1 b0 - i sum_a d_{xi_a} a0 d_{x_a} b0.

    Derivative evaluators of the product are propagated by the product
    rule, so composites can be composed again without accuracy loss.
    Each slot evaluates only the operand slots its formula reads.
    """
    if a.dim != b.dim:
        raise ValueError("fiber dimensions differ: %d vs %d" % (a.dim, b.dim))

    def c0(x, xi):
        return np.asarray(a.a0(x, xi)) @ np.asarray(b.a0(x, xi))

    def c_m1(x, xi):
        return _product_m1(
            np.asarray(a.a0(x, xi)), np.asarray(a.a_m1(x, xi)), a.xi_derivative(x, xi),
            np.asarray(b.a0(x, xi)), np.asarray(b.a_m1(x, xi)), b.x_derivative(x, xi),
        )

    def dx_c0(x, xi):
        return _product_rule(
            a.x_derivative(x, xi), np.asarray(a.a0(x, xi)),
            b.x_derivative(x, xi), np.asarray(b.a0(x, xi)),
        )

    def dxi_c0(x, xi):
        return _product_rule(
            a.xi_derivative(x, xi), np.asarray(a.a0(x, xi)),
            b.xi_derivative(x, xi), np.asarray(b.a0(x, xi)),
        )

    return TwoTermSymbol(dim=a.dim, a0=c0, a_m1=c_m1, dx_a0=dx_c0, dxi_a0=dxi_c0)


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
        mixed = _fd_x_derivative(a.xi_derivative, x, xi, a.dim)
        val = np.asarray(a.a_m1(x, xi), dtype=complex)
        return val - 0.5j * np.trace(mixed, axis1=-4, axis2=-3)

    return a_sub


def cluster_symbols(p, a0, a_m1, dx_a0, dxi_a0):
    """Normalized order -1 cluster symbols of p_iota(A) at every root.

    For each root w_iota of p, the two-term product
    (A - w_iota) # prod_{l != iota} (A - w_l) # (A - w_l) is folded from
    the left through the composition formula on a's jet: a0 and a_m1 of
    shape (..., N, N), d_x a0 and d_xi a0 of shape (..., 2, N, N), all
    evaluated once at the same points.  The roots are folded side by
    side on a root axis.  Each product's order 0 part p_iota(a0) must
    vanish; a ValueError is raised when its norm exceeds _ORDER0_TOL at
    any point for any root (a is then not polynomially compact with
    these roots).  Returns the order -1 terms divided by
    root_derivative_scale, stacked as (..., L, N, N) in root order.
    """
    roots = np.array(_poly_roots(p))
    eye = np.eye(np.shape(a0)[-1], dtype=complex)
    # row iota: the roots other than w_iota, each twice, in root order
    squared = np.array(
        [[w for l, w in enumerate(roots) if l != i for _ in range(2)] for i in range(len(roots))]
    )
    a0 = np.asarray(a0, dtype=complex)[..., None, :, :]
    am1 = np.asarray(a_m1, dtype=complex)[..., None, :, :]
    dx, dxi = np.asarray(dx_a0)[..., None, :, :, :], np.asarray(dxi_a0)[..., None, :, :, :]
    # the running product c = (a - w_iota) # ...; only its xi derivative
    # is needed, since c always stands on the left
    c0, c_m1, dxi_c0 = a0 - roots[:, None, None] * eye, am1, dxi
    for w in squared.T:
        q0 = a0 - w[:, None, None] * eye
        c0, c_m1, dxi_c0 = (
            c0 @ q0,
            _product_m1(c0, c_m1, dxi_c0, q0, am1, dx),
            _product_rule(dxi_c0, c0, dxi, q0),
        )
    res = np.linalg.norm(c0, 2, axis=(-2, -1))
    res = res.reshape(-1, len(roots)).max(axis=0)
    if res.max() > _ORDER0_TOL:
        i = int(np.argmax(res))
        raise ValueError(
            "order 0 residual %.3e at root %g exceeds %.1e: principal symbol "
            "eigenvalues do not match the given roots" % (res[i], roots[i], _ORDER0_TOL)
        )
    scales = [root_derivative_scale(p, i) for i in range(len(roots))]
    return c_m1 / np.array(scales)[:, None, None]


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
