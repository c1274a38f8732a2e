"""Eigenvalue counting coefficients from boundary symbols.

The normalized cluster symbol m at a spectral root has real
eigenvalues (up to measurement error); the two-sided counting
functions of the operator cluster at that root obey

    n_pm(tau) ~ C_pm tau^(-d),    d = boundary dimension = 2,

with

    C_pm = d^-1 (2 pi)^-d int_Gamma int_{|xi|=1}
           Tr[ (m(x, xi))_pm^d ]  dcirc(xi) dS(x),

where (.)_pm are the positive/negative spectral parts and dcirc is
arclength on the unit frequency circle.  At a point with principal
curvatures (kappa1, kappa2), m = kappa1 M1 + kappa2 M2 at every
root, so coefficient_integral needs of the surface only its curvatures
and weights; it builds M1 and M2 once, computes all roots together and
takes each spectrum from trace tables and the trigonometric cubic.
"""

import numpy as np

from .extraction import _directions, curvature_matrices
from .surfaces import _node_blocks

# boundary dimension d, the power of the signed traces
_DIM = 2
# largest accepted realness defect of a node's cubic (imaginary part of
# a trace power, a negative tr b^2 or a negative discriminant), in
# units of the node's magnitude reference
_REAL_TOL = 1e-12
# eigenvalues within this fraction of the magnitude reference are zero;
# the cubic formula splits a double root at zero by about 3e-9 of it
_ZERO_TOL = 1e-7
# frequency directions of the coefficient integral (the drift check
# halves them)
_ANGLES = 64


def coefficient_integral(params, kappa1, kappa2, weights):
    """Two-sided counting coefficients (C_plus, C_minus) at every root.

    kappa1, kappa2 and weights are the principal curvatures and weights
    of a surface rule's nodes; C_plus and C_minus are arrays over the
    essential spectrum roots of the material params, in root order.  The
    frequency integral runs over _ANGLES equispaced unit directions.
    There is no eigensolve: tables of tr M_i and of the traces of
    products of b_i = M_i - tr M_i / 3 give, at every node, q = tr m / 3
    and tr b^2, tr b^3 of b = m - q I; the trigonometric cubic gives the
    eigenvalues q + 2 p cos(phi - 2 pi k / 3), p = sqrt(tr b^2 / 6),
    cos 3 phi = tr b^3 / (6 p^3).  Cluster spectra must be real: real
    trace powers, nonnegative tr b^2 and discriminant, each to _REAL_TOL
    of the node's magnitude reference; an error names the node.  The
    info dict reports each root's drift when the angle count is halved
    (every second direction), an internal convergence check.  Nodes go
    in blocks of surfaces._node_blocks ((node, direction) pairs count as
    points), so memory stays flat in the rule; the result does not
    depend on the block size.
    """
    m12 = curvature_matrices(params, _directions(_ANGLES))
    mean = np.trace(m12, axis1=-2, axis2=-1) / 3.0
    b = m12 - mean[..., None, None] * np.eye(3)
    bb = np.einsum("iarwx,jarxw->ijar", b, b)
    bbb = np.einsum("iarwx,jarxy,karyw->ijkar", b, b, b)
    # sums (full grid, half grid; plus, minus; root) of the weighted signed
    # traces, node by node in node order: the same bits for any blocks
    total = np.zeros((2, 2, 1, mean.shape[-1]))
    bounds = _node_blocks(np.full(len(weights), _ANGLES))
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        kappa = np.column_stack([kappa1[b0:b1], kappa2[b0:b1]])
        part = _signed_sums(kappa, weights[b0:b1], mean, bb, bbb, b0)
        total = np.add.accumulate(np.concatenate([total, part], axis=2), axis=2)[:, :, -1:]
    total = total[:, :, 0] * (2.0 * np.pi * np.array([1.0, 2.0])[:, None, None] / _ANGLES)
    (cp, cm), (cp_h, cm_h) = (2.0 * np.pi) ** (-_DIM) / _DIM * total
    scale = np.maximum(np.maximum(abs(cp), abs(cm)), 1e-30)
    info = {"angle_drift": np.maximum(abs(cp - cp_h), abs(cm - cm_h)) / scale}
    return cp, cm, info


def _signed_sums(kappa, weights, mean, bb, bbb, first):
    """Direction sums (full grid, half grid; plus, minus; node, root) of
    the weighted signed traces on a block of nodes, from node first on."""
    # q, tr b^2 and tr b^3 are forms in kappa of degree 1, 2 and 3:
    # contract the (angle, root) tables with it
    q = np.einsum("ni,iar->nra", kappa, mean)
    s = np.einsum("ni,nj,ijar->nra", kappa, kappa, bb)
    t = np.einsum("ni,nj,nk,ijkar->nra", kappa, kappa, kappa, bbb)
    # sqrt(3 q^2 + tr b^2) is sqrt Tr m^2 for a real spectrum; the cube
    # root of tr b^3 sizes a nilpotent-like b
    ref = np.maximum(np.sqrt(3.0 * abs(q) ** 2 + abs(s)), abs(t) ** (1.0 / 3.0)).max(axis=-1)
    ref = np.where(ref > 0.0, ref, 1.0)[..., None]
    q, s, t = q / ref, s / ref**2, t / ref**3
    imag = [abs(x.imag).max(axis=(1, 2)) for x in (q, s, t)]
    q, s, t = q.real, s.real, t.real
    # (tr b^2 / 6)^3 - (tr b^3 / 6)^2, the discriminant over 108
    disc = (s / 6.0) ** 3 - (t / 6.0) ** 2
    defect = np.max(imag + [(-s).max(axis=(1, 2)), (-disc).max(axis=(1, 2))], axis=0)
    if np.any(defect > _REAL_TOL):
        node = int(np.argmax(defect > _REAL_TOL))
        raise ValueError(
            "spectrum not real at node %d: realness defect %.3e of magnitude %.3e"
            % (first + node, defect[node], ref[node].max())
        )
    p = np.sqrt(np.maximum(s, 0.0) / 6.0)
    phi = np.arctan2(np.sqrt(np.maximum(disc, 0.0)), t / 6.0) / 3.0
    # weighted signed traces (plus, minus), (2, nodes, roots, angles)
    traces = np.zeros((2,) + q.shape)
    for k in range(3):
        lam = q + 2.0 * p * np.cos(phi - 2.0 * np.pi * k / 3.0)
        traces[0] += np.where(lam > _ZERO_TOL, lam**2, 0.0)
        traces[1] += np.where(lam < -_ZERO_TOL, lam**2, 0.0)
    traces *= weights[:, None, None] * ref**2
    return np.array([traces[..., ::step].sum(axis=-1) for step in (1, 2)])
