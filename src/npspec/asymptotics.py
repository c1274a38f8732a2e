"""Eigenvalue counting coefficients from boundary symbols.

The normalized cluster symbol m_hat at a spectral root has real
eigenvalues (up to measurement error); the two-sided counting
functions of the operator cluster at that root obey

    n_pm(tau) ~ C_pm tau^(-d),    d = boundary dimension = 2,

with

    C_pm = d^-1 (2 pi)^-d int_Gamma int_{|xi|=1}
           Tr[ (m_hat(x, xi))_pm^d ]  dcirc(xi) dS(x),

where (.)_pm are the positive/negative spectral parts and dcirc is
arclength on the unit frequency circle.  Every root's m_hat comes from
the same two-term symbol at a point, so coefficient_integral computes
the coefficients of all roots together, from one evaluation of the
cluster symbols and one eigensolve per block of nodes.
"""

from dataclasses import dataclass, field

import numpy as np

# largest accepted imaginary part of a cluster symbol eigenvalue,
# relative to the node's magnitude reference
_IMAG_TOL = 1e-4
# boundary dimension d, the power of the signed traces
_DIM = 2
# frequency directions of the coefficient integral (the drift check
# halves them)
_ANGLES = 64


def signed_power_trace(mat, d, sign, imag_tol=1e-6, zero_tol=1e-12, scale=None):
    """Tr of the d-th power of the positive or negative part of mat.

    mat is one matrix or a stack (..., N, N); the result is one trace
    per matrix, a float for a single matrix.  Each matrix must have a
    real spectrum up to imag_tol relative to its own spectral radius
    (error otherwise).  Eigenvalues within zero_tol relative of zero
    belong to neither part.  sign is +1 or -1; the negative part uses
    |lambda|^d, so both traces are nonnegative.  scale, when given, is
    an external magnitude reference: both tolerance tests are relative
    to max(radius, scale), so matrices negligible against it pass with
    a negligible contribution.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    vals = np.linalg.eigvals(np.asarray(mat))
    out = _signed_traces(vals, d, imag_tol, zero_tol, scale)[0 if sign > 0 else 1]
    return float(out) if out.ndim == 0 else out


def _signed_traces(vals, d, imag_tol, zero_tol, scale, first_node=None):
    """(plus, minus) signed power traces from eigenvalues vals (..., N),
    with the tolerance tests of signed_power_trace; with first_node, a
    non-real spectrum error names the node of vals' leading axis."""
    rho = np.abs(vals).max(axis=-1)
    ref = np.maximum(np.maximum(rho, scale if scale is not None else 0.0), 1e-300)
    worst = np.abs(vals.imag).max(axis=-1)
    bad = worst > imag_tol * ref
    if np.any(bad):
        k = np.argmax(bad)
        where = "" if first_node is None else " at node %d" % (first_node + k // bad[0].size)
        raise ValueError(
            "spectrum not real%s: max imaginary part %.3e vs radius %.3e"
            % (where, worst.flat[k], rho.flat[k])
        )
    re = vals.real
    cut = zero_tol * ref[..., None]
    power = np.abs(re) ** d
    return tuple(np.sum(np.where(keep, power, 0.0), axis=-1) for keep in (re > cut, re < -cut))


def coefficient_integral(field):
    """Two-sided counting coefficients (C_plus, C_minus) at every root.

    field is an extracted SymbolField; C_plus and C_minus are arrays
    over its spectral roots, in root order.  The frequency integral
    runs over _ANGLES equispaced unit directions (whatever the field's
    angular resolution: its evaluators interpolate between their own
    grid angles) and the surface integral over the field's quadrature
    weights.  The nodes go in the field's extraction blocks: per block,
    the cluster symbols are evaluated once, on the whole direction stack
    and for every node and root, and one eigensolve serves all its
    nodes, roots, both signs and the half grid.  Cluster spectra must be
    real to _IMAG_TOL relative; an error names the node.  The returned
    info dict reports each root's drift when the angle count is halved,
    an internal convergence check; the half grid is every second
    direction of the full one, with its own magnitude reference.
    """
    thetas = 2.0 * np.pi * np.arange(_ANGLES) / _ANGLES
    xis = np.column_stack([np.cos(thetas), np.sin(thetas)])
    # rows: full grid, half grid; columns: plus, minus; then roots
    sums = np.zeros((2, 2, len(field.roots.roots)))
    for b0, b1 in zip(field.blocks[:-1], field.blocks[1:]):
        # (nodes, roots, angles, N, N) in C order, so that each root's
        # angular sum is one contiguous pairwise sum
        mats = np.ascontiguousarray(np.moveaxis(field.m_hat(xis, slice(b0, b1)), -3, 1))
        vals = np.linalg.eigvals(mats)
        for k, step in enumerate((1, 2)):
            ref = np.abs(mats[:, :, ::step]).max(axis=(-3, -2, -1))[..., None]
            w = field.weights[b0:b1, None] * (2.0 * np.pi / (_ANGLES // step))
            traces = _signed_traces(
                vals[:, :, ::step], _DIM, _IMAG_TOL, zero_tol=1e-12, scale=ref, first_node=b0
            )
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
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "root": self.root,
            "side": self.side,
            "C": self.c,
            "d": self.d,
            "route": self.route,
            "err_estimate": self.err_estimate,
        }
        out.update(self.extra)
        return out
