"""Boundary symbol extraction from the double layer kernel.

At a node with principal curvatures (kappa1, kappa2) the two-term symbol
is closed form: the flat a0 and d_xi a0 carry no curvature, and the
degree -1 part and d_x a0 are linear in it.  So are the normalized
cluster symbols that drive the counting coefficients:
m = kappa1 M1 + kappa2 M2, with M1 and M2 from curvature_matrices.

Extraction is the check of those forms.  Per block of nodes, one chart
kernel call in curvature-aligned charts and one radial extrapolation
ladder fit split the kernels into homogeneous parts of degree -2 and
-1; the angular Fourier multiplier of the kernel transform
a(x, xi) = int exp(+i z.xi) k(x, z) dz maps each part to its planar
symbol.  The degree -2 part must be odd (its even part has no classical
symbol), its symbol must be the flat form, and the degree -1 samples
must be the closed form; a failed check names the node.
"""

import math
from dataclasses import dataclass

import numpy as np

from .elasticity import essential_spectrum, np_kernel, np_principal_symbol
from .surfaces import CCoordinateChart, _node_blocks, c_chart
from .symbols import TwoTermSymbol, cluster_symbols


# extrapolation ladder: geomspace arguments of its radii eps, fitted by
# a quartic in eps (built per call: a geomspace call at import would add
# about 0.5 MB to the resident size of every CLI stage)
_LADDER = (1.0e-3, 1.0e-2, 8)
# largest accepted relative even part of the degree -2 kernel samples
_ODD_TOL = 1e-5
# largest accepted relative even mode of a degree -2 kernel part
_EVEN_TOL = 1e-8
# largest accepted deviation of the extracted degree 0 symbol from the
# closed flat-boundary form
_K0_TOL = 1e-4
# largest accepted deviation of the degree -1 kernel samples from the
# closed form, relative to the field's largest (ladder error: 3e-8-2e-7)
_KM1_TOL = 1e-5


def _raise_at_node(failed, first_node, message, *values):
    """ValueError(message % values) naming the first failing node of a
    stack, counted from first_node; failed and values are per node."""
    bad = np.flatnonzero(failed)
    if bad.size:
        i = bad[0]
        values = tuple(np.ravel(v)[i] for v in values)
        raise ValueError((message + " at node %d") % (values + (first_node + i,)))


def chart_kernel(params, chart, z):
    """Double layer kernel in chart coordinates, with area factor.

    For planar offsets z of shape (..., 2) (the chart coordinates of x
    minus those of y, x fixed at the chart origin), evaluates
    K(x, y(-z)) nu-contracted as 3x3 matrices in the chart frame times
    the chart area element sqrt(1 + |grad F|^2), so that integrals
    against chart coordinates reproduce surface integrals.  z
    broadcasts against a stacked chart, each offset in its own chart.
    Returns shape (..., 3, 3).
    """
    q, nu, area = chart.geometry(-np.asarray(z, dtype=float))
    k_lab = np_kernel(params, chart.origin, q, nu)
    frame = np.stack([chart.e1, chart.e2, chart.n], axis=-1)
    return area[..., None, None] * (np.swapaxes(frame, -1, -2) @ k_lab @ frame)


def homogeneous_parts(kernel_fn, angles=64, first_node=0):
    """Split chart kernels into degree -2 and -1 homogeneous parts.

    kernel_fn is called once, on the ladder-by-direction block z of
    shape (ladder, angles, 2), and returns (..., ladder, angles, 3, 3);
    leading axes stack kernels (one per node).  Along each of `angles`
    equispaced directions the scaled values eps^2 kernel_fn(eps u) are
    fitted by a polynomial in eps over the extrapolation ladder _LADDER,
    all kernels in one solve; the constant and linear coefficients are
    the degree -2 and -1 angular samples.  Each degree -2 part must be
    odd under u -> -u to the tolerance _ODD_TOL relative to its largest
    sample; an error names the node, counting from first_node.

    Returns (samples_m2, samples_m1, diagnostics): the angular samples
    (..., angles, 3, 3) of the degree -2 and -1 parts, stacked like the
    kernels; samples[..., j, :, :] is the coefficient at the direction
    angle 2 pi j / angles, so the kernel part is samples(theta) |z|^degree.
    """
    if angles < 64 or angles % 2:
        raise ValueError("need an even direction count of at least 64")
    ladder = np.geomspace(*_LADDER)
    s = ladder[-1]
    design = np.vander(ladder / s, 5, increasing=True)
    thetas = 2.0 * np.pi * np.arange(angles) / angles
    u = np.column_stack([np.cos(thetas), np.sin(thetas)])
    vals = ladder[:, None, None, None] ** 2 * kernel_fn(ladder[:, None, None] * u)
    shape = vals.shape[:-4] + (angles, 3, 3)
    flat = np.moveaxis(vals, -4, 0).reshape(ladder.size, -1)
    coef, res, _, _ = np.linalg.lstsq(design, flat, rcond=None)
    short = np.linalg.lstsq(design[:-2], flat[:-2], rcond=None)[0]
    per_node = lambda a: a.reshape(shape[:-3] + (-1,)).max(axis=-1)
    k0 = coef[0].reshape(shape)
    k1 = (coef[1] / s).reshape(shape)
    resid = np.sqrt(per_node(res) / ladder.size) if res.size else np.zeros(shape[:-3])
    drift = per_node(np.abs(short[0] - coef[0]))
    scale = np.maximum(np.abs(k0).max(axis=(-3, -2, -1)), 1e-30)
    half = angles // 2
    odd_defect = np.abs(k0 + np.roll(k0, half, axis=-3)).max(axis=(-3, -2, -1))
    _raise_at_node(
        odd_defect > _ODD_TOL * scale, first_node,
        "degree -2 kernel part is not odd: defect %.3e (scale %.3e)", odd_defect, scale,
    )
    k0 = 0.5 * (k0 - np.roll(k0, half, axis=-3))
    diagnostics = {"fit_residual": resid, "ladder_drift": drift, "odd_defect": odd_defect / scale}
    return k0, k1, diagnostics


def fourier_multiplier(n, a):
    """Angular multiplier of the planar kernel transform.

    For a kernel f(direction angle) |z|^(-a) with angular mode
    exp(i n theta), the symbol is multiplier(n, a) exp(i n phi)
    |xi|^(a-2) with

        multiplier = 2^(2-a) pi i^|n| Gamma((|n|-a+2)/2) / Gamma((|n|+a)/2)

    valid for a in (0, 2) and, for odd n, at a = 2.
    """
    n = abs(int(n))
    if a == 2 and n % 2 == 0:
        raise ValueError("even modes of degree -2 kernels have no multiplier")
    lg = math.lgamma((n - a + 2) / 2.0) - math.lgamma((n + a) / 2.0)
    return 2.0 ** (2.0 - a) * math.pi * (1j) ** n * math.exp(lg)


@dataclass(frozen=True)
class AngularSymbol:
    """Homogeneous matrix symbols stored by angular Fourier modes.

    coeffs[..., j, :, :] is the coefficient of the mode ns[j]; leading
    axes stack symbols (one per node).
    A call evaluates sum_j coeffs[..., j] exp(i ns[j] phi(xi)) |xi|^degree
    at nonzero planar frequencies xi of shape (..., 2), with shape
    coeffs.shape[:-3] + xi.shape[:-1] + (3, 3).
    """

    degree: int
    ns: np.ndarray
    coeffs: np.ndarray

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        r = np.linalg.norm(xi, axis=-1)
        if np.any(r == 0.0):
            raise ValueError("xi = 0 rejected")
        # the trigonometric series, one matrix product per stacked symbol
        phi = np.arctan2(xi[..., 1], xi[..., 0])
        phase = np.exp(1j * self.ns * phi[..., None]).reshape(-1, len(self.ns))
        stack = self.coeffs.shape[:-3]
        out = phase @ self.coeffs.reshape(stack + (len(self.ns), 9))
        return out.reshape(stack + xi.shape[:-1] + (3, 3)) * r[..., None, None] ** self.degree


def angular_fourier_symbol(samples, degree):
    """Planar symbols of homogeneous kernel parts, stacked like the parts.

    samples (..., M, 3, 3) are a part's angular samples as
    homogeneous_parts returns them, of the given kernel degree.  Degree
    -2 gives degree 0 symbols (odd modes only; even mode content beyond
    _EVEN_TOL relative is an error naming the node), degree -1 gives
    degree -1 symbols.  The two-sided angular Fourier coefficients c_n,
    |n| < M/2, all come from one FFT, each mode's multiplier is computed
    once, and a part's modes below 1e-13 relative are zero.
    """
    a = -degree
    m = samples.shape[-3]
    scale = np.maximum(np.abs(samples).max(axis=(-3, -2, -1)), 1e-30)
    ns = np.arange(-(m // 2 - 1), m // 2)
    coeffs = (np.fft.fft(samples, axis=-3) / m)[..., ns, :, :]
    mags = np.abs(coeffs).max(axis=(-2, -1))
    even = (ns % 2 == 0) & (a == 2)
    bad_even = np.where(even, mags, 0.0).max(axis=-1)
    _raise_at_node(
        bad_even > _EVEN_TOL * scale, 0,
        "even angular content %.3e in a degree -2 kernel part", bad_even / scale,
    )
    ns, coeffs, mags = ns[~even], coeffs[..., ~even, :, :], mags[..., ~even]
    mult = np.array([fourier_multiplier(n, a) for n in ns])[:, None, None]
    keep = (mags >= 1e-13 * scale[..., None])[..., None, None]
    return AngularSymbol(degree=a - 2, ns=ns, coeffs=np.where(keep, mult * coeffs, 0.0))


def _km1_closed_form(params, kappa1, kappa2, u):
    """Degree -1 angular coefficient of the chart kernel in a principal
    chart, S + (..., 3, 3) at unit directions u (..., 2) for curvatures
    of a chart stack of shape S: the first-order term of the kernel on
    the osculating quadric (kappa1 w1^2 + kappa2 w2^2) / 2, with
    D = lam' - mu' and U = (u1, u2, 0),

        1/2 [ mu D (kappa1 - kappa2) u1 u2 (E_12 - E_21)
              - (kappa1 u1^2 + kappa2 u2^2) (mu D I + 6 mu mu' U U^T) / 2 ].

    Higher derivatives of the chart height enter only at the next order.
    """
    k1, k2 = (np.reshape(k, np.shape(k) + (1,) * (np.ndim(u) - 1)) for k in (kappa1, kappa2))
    u1, u2 = u[..., 0], u[..., 1]
    mu_d = params.mu * (params.lam_prime - params.mu_prime)
    big_u = np.concatenate([u, np.zeros(u.shape[:-1] + (1,))], axis=-1)
    uu = big_u[..., :, None] * big_u[..., None, :]
    stretch = mu_d * np.eye(3) + 6.0 * params.mu * params.mu_prime * uu
    twist = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    bend = (k1 * u1**2 + k2 * u2**2)[..., None, None]
    return 0.5 * (mu_d * (k1 - k2) * u1 * u2)[..., None, None] * twist - 0.25 * bend * stretch


def _principal_xi_derivative(params, xi):
    """Analytic xi gradient of the flat principal symbol, (..., 2, 3, 3).

    The symbol is c g(xi) / |xi| with g linear, and np_principal_symbol
    at the unit vector e_al is c g(e_al), so the gradient is
    (c g(e_al) - xi_al c g(xi) / |xi|^2) / |xi|.
    """
    xi = np.asarray(xi, dtype=float)
    r = np.linalg.norm(xi, axis=-1)[..., None, None, None]
    unit = np_principal_symbol(params, np.eye(2))
    sym = np_principal_symbol(params, xi)[..., None, :, :]
    return unit / r - xi[..., :, None, None] * sym / r**2


def _principal_x_derivative(params, kappa1, kappa2, xi):
    """Tangential x gradient of the principal symbol in a principal
    chart frame (e1, e2, n), S + (..., 2, 3, 3) for frequencies xi
    (..., 2) and curvatures of a chart stack of shape S.

    The flat symbol a0(xi) is fixed in the chart frame, and moving the
    base point along e_al tilts that frame by the Weingarten map, so
    d_{x_al} a0 = [kappa_al T_al, a0] with T_al = E_{n al} - E_{al n}.
    """
    a0 = np_principal_symbol(params, xi)[..., None, :, :]
    kappa = np.stack(np.broadcast_arrays(kappa1, kappa2), axis=-1)
    kappa = kappa.reshape(kappa.shape[:-1] + (1,) * (np.ndim(xi) - 1) + (2,))
    tilt = np.zeros(kappa.shape + (3, 3))
    for al in range(2):
        tilt[..., al, 2, al], tilt[..., al, al, 2] = kappa[..., al], -kappa[..., al]
    return tilt @ a0 - a0 @ tilt


def curvature_matrices(params, xi):
    """Cluster symbols per unit principal curvature, (2, ..., L, 3, 3).

    M1 and M2 at frequencies xi (..., 2) are the normalized cluster
    symbols at every root of the jets with curvatures (1, 0) and (0, 1).
    The fold is linear in (a_m1, d_x a0), which are linear in the
    curvatures, so a node's cluster symbol is kappa1 M1 + kappa2 M2.
    The closed-form degree -1 part has angular modes |n| <= 4, which 16
    samples carry exactly.
    """
    thetas = 2.0 * np.pi * np.arange(16) / 16
    u = np.column_stack([np.cos(thetas), np.sin(thetas)])
    unit = np.eye(2)  # (kappa1, kappa2) stacks: (1, 0) and (0, 1)
    km1 = angular_fourier_symbol(_km1_closed_form(params, *unit, u), -1)
    return cluster_symbols(essential_spectrum(params), TwoTermSymbol(
        np_principal_symbol(params, xi), km1(xi),
        _principal_x_derivative(params, *unit, xi), _principal_xi_derivative(params, xi),
    ))


@dataclass(frozen=True)
class SymbolField:
    """Extracted two-term boundary symbol data over the nodes of a
    surface rule, in the rule's node order; the rule itself (nodes,
    weights, parameters) stays with the caller.

    charts holds the curvature-aligned charts of all nodes stacked
    (charts[i] is node i's, with its curvatures kappa1[i], kappa2[i]).
    The degree 0 and -1 symbols k0 and km1 are stacked over the nodes:
    at frequencies xi of shape (..., 2) they return (nodes, ..., 3, 3).
    diagnostics holds the extraction's maxima over the nodes.
    """

    charts: CCoordinateChart
    k0: AngularSymbol
    km1: AngularSymbol
    diagnostics: dict


def np_symbol_field(surface, params, quad, angles=64):
    """Extract the two-term boundary symbol at every quadrature node.

    quad is a SurfaceQuadrature (nodes, weights, parameters).  The nodes
    go in blocks of at most _BLOCK_POINTS ladder x direction points (4
    nodes at 64 directions), each with one chart kernel call on its
    stacked charts and one ladder fit.  At every node and direction the
    degree 0 symbol is checked against the flat form (_K0_TOL) and the
    degree -1 kernel samples against _km1_closed_form (_KM1_TOL); a
    failure names the node.  The diagnostics are maxima over the nodes.
    """
    charts = c_chart(surface, quad.params[:, 0], quad.params[:, 1])
    blocks = _node_blocks([_LADDER[2] * angles] * quad.size)
    fits = [
        homogeneous_parts(
            lambda z: chart_kernel(params, charts[b0:b1, None, None], z), angles, first_node=b0
        )
        for b0, b1 in zip(blocks[:-1], blocks[1:])
    ]
    samples_m2, samples_m1 = (np.concatenate([fit[j] for fit in fits]) for j in (0, 1))
    k0 = angular_fourier_symbol(samples_m2, -2)
    thetas = 2.0 * np.pi * np.arange(angles) / angles
    xis = np.column_stack([np.cos(thetas), np.sin(thetas)])
    err = np.abs(k0(xis) - np_principal_symbol(params, xis)).max(axis=(-3, -2, -1))
    _raise_at_node(err > _K0_TOL, 0, "extracted degree 0 symbol off closed form by %.3e", err)
    want = _km1_closed_form(params, charts.kappa1, charts.kappa2, xis)
    km1_err = np.abs(samples_m1 - want).max(axis=(-3, -2, -1)) / np.abs(want).max()
    _raise_at_node(km1_err > _KM1_TOL, 0, "degree -1 samples off closed form by %.3e", km1_err)
    diagnostics = {
        key: float(max(fit[2][key].max() for fit in fits))
        for key in ("ladder_drift", "fit_residual", "odd_defect")
    }
    return SymbolField(
        charts=charts,
        k0=k0,
        km1=angular_fourier_symbol(samples_m1, -1),
        diagnostics=dict(
            diagnostics, k0_max_err=float(err.max()), km1_max_err=float(km1_err.max())
        ),
    )
