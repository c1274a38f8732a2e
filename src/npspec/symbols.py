"""Two-term matrix symbol calculus on a 2-dimensional base.

A classical zero order symbol is tracked through its two leading
homogeneous terms: a0 of degree 0 and a_m1 of degree -1 in the covector
xi.  The calculus works on jets: the arrays a0, a_m1, d_x a0 and
d_xi a0 of one symbol evaluated at the same points (x, xi).  Leading
axes broadcast, so a stack of frequencies is one jet and a single point
is the case with no leading axes.

Composition convention.  The two-term product is

    (a # b)_0    = a0 b0,
    (a # b)_{-1} = a0 b_m1 + a_m1 b0 - i sum_a d_{xi_a} a0 d_{x_a} b0,

with first derivatives of (a # b)_0 by the product rule.  Both are
written once, as array functions of the operands' jets; compose applies
them to two jets and cluster_symbols folds them over the factors of
p_iota(A), for every root at once on one jet of a.
The sign of the derivative terms is tied to the kernel transform and
chart frame conventions of the extraction module; it is pinned by the
exact sphere spectrum (see the cluster symbol tests).
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

# largest accepted norm of the order 0 part p_iota(a0) of a cluster symbol
_ORDER0_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class TwoTermSymbol:
    """Jet of a classical symbol at a set of points (x, xi).

    a0 (degree 0) and a_m1 (degree -1) have shape (..., N, N); the first
    derivatives dx_a0 and dxi_a0 of a0 have shape (..., 2, N, N), one
    matrix per coordinate direction, indexed as [..., al, :, :].
    """

    a0: np.ndarray
    a_m1: np.ndarray
    dx_a0: np.ndarray
    dxi_a0: np.ndarray


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

    def coefficients(self):
        """Monic coefficients in ascending order."""
        return npoly.polyfromroots(self.roots).real

    def __call__(self, omega):
        return npoly.polyval(omega, self.coefficients())


def _product_m1(a0, a_m1, dxi_a0, b0, b_m1, dx_b0):
    """Order -1 term of a # b from the operands' jets: a0, a_m1, b0,
    b_m1 of shape (..., N, N), dxi_a0 and dx_b0 of shape (..., 2, N, N)."""
    return a0 @ b_m1 + a_m1 @ b0 - 1j * np.sum(dxi_a0 @ dx_b0, axis=-3)


def _product_rule(da, a0, db, b0):
    """Derivative (..., 2, N, N) of a0 b0 from the factors and their
    derivatives da, db of shape (..., 2, N, N)."""
    return da @ b0[..., None, :, :] + a0[..., None, :, :] @ db


def compose(a, b):
    """Jet of the operator product a # b from the operands' jets."""
    return TwoTermSymbol(
        a0=a.a0 @ b.a0,
        a_m1=_product_m1(a.a0, a.a_m1, a.dxi_a0, b.a0, b.a_m1, b.dx_a0),
        dx_a0=_product_rule(a.dx_a0, a.a0, b.dx_a0, b.a0),
        dxi_a0=_product_rule(a.dxi_a0, a.a0, b.dxi_a0, b.a0),
    )


def root_derivative_scale(p, iota):
    """p_iota'(w_iota) = prod_{l != iota} (w_iota - w_l)^2 for the
    SpectralPolynomial p."""
    w = p.roots[iota]
    out = 1.0
    for l, wl in enumerate(p.roots):
        if l != iota:
            out *= (w - wl) ** 2
    return out


def cluster_symbols(p, a):
    """Normalized order -1 cluster symbols of p_iota(A) at every root.

    For each root w_iota of the SpectralPolynomial p, the two-term product
    (A - w_iota) # prod_{l != iota} (A - w_l) # (A - w_l) is folded from
    the left through the composition formula on a's jet, a TwoTermSymbol
    at any set of points.  The roots are folded side by side on a root
    axis.  Each product's order 0 part p_iota(a0) must vanish; a
    ValueError is raised when its norm exceeds _ORDER0_TOL at any point
    for any root (a is then not polynomially compact with these roots).
    Returns the order -1 terms divided by root_derivative_scale, stacked
    as (..., L, N, N) in root order.

    The jet arrays broadcast: a0 and dxi_a0 may omit leading axes along
    which they do not vary, and their part of the fold and the order 0
    residual then run once, bit for bit as if broadcast.  For fixed a0
    and dxi_a0 the result is linear in (a_m1, dx_a0).
    """
    roots = np.array(p.roots)
    eye = np.eye(np.shape(a.a0)[-1], dtype=complex)
    # row iota: the roots other than w_iota, each twice, in root order
    squared = np.array(
        [[w for l, w in enumerate(roots) if l != i for _ in range(2)] for i in range(len(roots))]
    )
    a0 = np.asarray(a.a0, dtype=complex)[..., None, :, :]
    am1 = np.asarray(a.a_m1, dtype=complex)[..., None, :, :]
    dx, dxi = np.asarray(a.dx_a0)[..., None, :, :, :], np.asarray(a.dxi_a0)[..., None, :, :, :]
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


def matrix_polynomial(coeffs, m):
    """Evaluate a scalar polynomial (ascending coefficients) on a matrix."""
    m = np.asarray(m, dtype=complex)
    out = np.zeros_like(m)
    power = np.eye(m.shape[0], dtype=complex)
    for c in coeffs:
        out = out + c * power
        power = power @ m
    return out
