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
and weights; it builds M1 and M2 once and computes all roots together.
"""

from dataclasses import dataclass

import numpy as np

from .extraction import curvature_matrices
from .surfaces import _node_blocks

# largest accepted imaginary part of a cluster symbol eigenvalue,
# relative to the node's magnitude reference
_IMAG_TOL = 1e-4
# boundary dimension d, the power of the signed traces
_DIM = 2
# eigenvalues within this fraction of the magnitude reference are zero
_ZERO_TOL = 1e-12
# frequency directions of the coefficient integral (the drift check
# halves them)
_ANGLES = 64


def _signed_traces(vals, scale, first_node):
    """Signed power traces (plus, minus) from eigenvalues vals (..., N):
    the sums of |lambda|^_DIM over the positive and over the negative
    eigenvalues, one pair of traces per leading index.

    Both tolerance tests are relative to max(spectral radius, scale),
    scale broadcasting against vals.shape[:-1], so a spectrum negligible
    against scale passes with a negligible contribution.  An imaginary
    part beyond _IMAG_TOL of that reference is an error naming the node,
    counted from first_node along vals' leading axis; eigenvalues within
    _ZERO_TOL of it belong to neither part.
    """
    rho = np.abs(vals).max(axis=-1)
    ref = np.maximum(np.maximum(rho, scale), 1e-300)
    worst = np.abs(vals.imag).max(axis=-1)
    bad = worst > _IMAG_TOL * ref
    if np.any(bad):
        k = np.argmax(bad)
        raise ValueError(
            "spectrum not real at node %d: max imaginary part %.3e vs radius %.3e"
            % (first_node + k // bad[0].size, worst.flat[k], rho.flat[k])
        )
    re = vals.real
    cut = _ZERO_TOL * ref[..., None]
    power = np.abs(re) ** _DIM
    return tuple(np.sum(np.where(keep, power, 0.0), axis=-1) for keep in (re > cut, re < -cut))


def coefficient_integral(params, kappa1, kappa2, weights):
    """Two-sided counting coefficients (C_plus, C_minus) at every root.

    kappa1, kappa2 and weights are the principal curvatures and weights
    of a surface rule's nodes; C_plus and C_minus are arrays over the
    essential spectrum roots of the material params, in root order.  The
    frequency integral runs over _ANGLES equispaced unit directions.
    Per block of at most surfaces._BLOCK_POINTS matrices, one eigensolve
    of kappa1 M1 + kappa2 M2 serves all its nodes, roots, both signs and
    the half grid; the sums add in node order, whatever the blocks.
    Cluster spectra must be real to _IMAG_TOL relative; an error names
    the node.  The info dict reports each root's drift when the angle
    count is halved (every second direction, with its own magnitude
    reference), an internal convergence check.
    """
    thetas = 2.0 * np.pi * np.arange(_ANGLES) / _ANGLES
    xis = np.column_stack([np.cos(thetas), np.sin(thetas)])
    # (2, roots, angles, N, N) in C order, so that a block's matrices
    # are too and each root's angular sum is one contiguous pairwise sum
    m12 = np.ascontiguousarray(np.moveaxis(curvature_matrices(params, xis), -3, 1))
    # rows: full grid, half grid; columns: plus, minus; then roots
    sums = np.zeros((2, 2, m12.shape[1]))
    blocks = _node_blocks([m12.shape[1] * _ANGLES] * len(weights))
    for b0, b1 in zip(blocks[:-1], blocks[1:]):
        k1, k2 = (c[b0:b1, None, None, None, None] for c in (kappa1, kappa2))
        mats = k1 * m12[0] + k2 * m12[1]
        vals = np.linalg.eigvals(mats)
        for k, step in enumerate((1, 2)):
            ref = np.abs(mats[:, :, ::step]).max(axis=(-3, -2, -1))[..., None]
            w = weights[b0:b1, None] * (2.0 * np.pi / (_ANGLES // step))
            traces = _signed_traces(vals[:, :, ::step], ref, b0)
            # node by node, so the sums add in node order
            for node_sums in np.stack([w * t.sum(axis=-1) for t in traces], axis=1):
                sums[k] += node_sums
    (cp, cm), (cp_h, cm_h) = (2.0 * np.pi) ** (-_DIM) / _DIM * sums
    scale = np.maximum(np.maximum(abs(cp), abs(cm)), 1e-30)
    info = {
        "angle_drift": np.maximum(abs(cp - cp_h), abs(cm - cm_h)) / scale,
        "angles": _ANGLES,
    }
    return cp, cm, info


@dataclass(frozen=True)
class AsymptoticReport:
    """One counting-asymptotics record.

    route is "symbol" (coefficient integral of the extracted symbol)
    or "counting" (power-law fit of a measured or exact counting
    function); err_estimate is the route's internal convergence
    measure, not a rigorous bound.
    """

    root: float
    side: str
    c: float
    d: float
    route: str
    err_estimate: float

    def to_dict(self):
        return {
            "root": self.root,
            "side": self.side,
            "C": self.c,
            "d": self.d,
            "route": self.route,
            "err_estimate": self.err_estimate,
        }
