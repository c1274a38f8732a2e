"""Boundary symbol extraction from the double layer kernel.

Pipeline over blocks of surface nodes: localize the kernel in
curvature-aligned charts, split the chart kernels into homogeneous
parts of degree -2 and -1 by a radial extrapolation ladder, map each
part to its planar symbol through the angular Fourier multiplier of the
kernel transform a(x, xi) = int exp(+i z.xi) k(x, z) dz, then assemble
the normalized cluster symbols that drive the eigenvalue counting
coefficients.  Per block, one chart kernel call and one ladder fit
serve all nodes; the symbols are stacked over the nodes, and a block's
cluster symbols at every root come from one evaluation of its two-term
jets.  The jet's tangential derivative d_x a0 is closed form in the
node's principal curvatures; its frequency derivative d_xi a0 is
closed form in the flat symbol, the same at every node.

The degree -2 part must be odd (its even part has no classical
symbol); the resulting degree 0 symbol is checked against the closed
flat-boundary form at every node.  A failed check names the node.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .elasticity import essential_spectrum, np_kernel, np_principal_symbol
from .surfaces import CCoordinateChart, _node_blocks, c_chart
from .symbols import SpectralPolynomial, TwoTermSymbol, cluster_symbols


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


@dataclass(frozen=True)
class HomogeneousKernelPart:
    """Angular samples of homogeneous kernel components.

    samples[..., j, :, :] is the 3x3 coefficient at direction angle
    2 pi j / M, so the kernel contribution is samples(theta) |z|^degree;
    leading axes stack components (one per node).  Evaluation between
    grid angles uses trigonometric interpolation; the sampled function
    is band limited to |n| < M/2 for the kernels handled here.
    """

    degree: int
    samples: np.ndarray

    @property
    def angle_count(self):
        return self.samples.shape[-3]

    @cached_property
    def _interpolator(self):
        """Trigonometric interpolant over the angles 2 pi j / M, M even,
        from one FFT.  The Nyquist coefficient is split evenly over the
        modes -M/2 and M/2, so it enters as a cosine and real samples
        interpolate to real values."""
        m = self.angle_count
        if m % 2:
            raise ValueError("trigonometric interpolation needs an even sample count")
        coeffs = np.fft.fft(self.samples, axis=-3) / m
        coeffs[..., m // 2, :, :] *= 0.5
        ns = np.append(np.fft.fftfreq(m, 1.0 / m), m // 2)
        nyquist = coeffs[..., m // 2 : m // 2 + 1, :, :]
        return AngularSymbol(0, ns, np.concatenate([coeffs, nyquist], axis=-3))

    def __call__(self, theta):
        return self._interpolator.series(theta).real


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

    Returns (part_m2, part_m1, diagnostics), stacked like the kernels.
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
    return HomogeneousKernelPart(-2, k0), HomogeneousKernelPart(-1, k1), diagnostics


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
    axes stack symbols (one per node), and symbol[index] selects them.
    A call evaluates sum_j coeffs[..., j] exp(i ns[j] phi(xi)) |xi|^degree
    at nonzero planar frequencies xi of shape (..., 2), with shape
    coeffs.shape[:-3] + xi.shape[:-1] + (3, 3).
    """

    degree: int
    ns: np.ndarray
    coeffs: np.ndarray

    def __getitem__(self, index):
        return AngularSymbol(self.degree, self.ns, self.coeffs[index])

    def series(self, theta):
        """The trigonometric series at angles theta of any shape, one
        matrix product per stacked symbol."""
        theta = np.asarray(theta, dtype=float)
        phase = np.exp(1j * self.ns * theta[..., None]).reshape(-1, len(self.ns))
        stack = self.coeffs.shape[:-3]
        out = phase @ self.coeffs.reshape(stack + (len(self.ns), 9))
        return out.reshape(stack + theta.shape + (3, 3))

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        r = np.linalg.norm(xi, axis=-1)
        if np.any(r == 0.0):
            raise ValueError("xi = 0 rejected")
        phi = np.arctan2(xi[..., 1], xi[..., 0])
        return self.series(phi) * r[..., None, None] ** self.degree


def angular_fourier_symbol(part):
    """Planar symbols of homogeneous kernel parts, stacked like the parts.

    part.degree = -2 gives degree 0 symbols (odd modes only; even mode
    content beyond _EVEN_TOL relative is an error naming the node),
    part.degree = -1 gives degree -1 symbols.  The two-sided angular
    Fourier coefficients c_n, |n| < M/2, all come from one FFT, each
    mode's multiplier is computed once, and a part's modes below 1e-13
    relative are zero.
    """
    a = -part.degree
    m = part.angle_count
    scale = np.maximum(np.abs(part.samples).max(axis=(-3, -2, -1)), 1e-30)
    ns = np.arange(-(m // 2 - 1), m // 2)
    coeffs = (np.fft.fft(part.samples, axis=-3) / m)[..., ns, :, :]
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


@dataclass(frozen=True)
class SymbolField:
    """Extracted two-term boundary symbol data over surface nodes.

    charts holds the curvature-aligned charts of all nodes stacked
    (charts[i] is node i's), roots the material's essential spectrum
    and blocks the node block boundaries of the extraction, which the
    coefficient integral reuses.  The degree 0 and -1 symbols k0 and km1
    are stacked over the nodes: at frequencies xi of shape (..., 2) they
    return (nodes, ..., 3, 3), and k0[i] is node i's.
    """

    surface: object
    params: object
    node_params: np.ndarray
    weights: np.ndarray
    roots: SpectralPolynomial
    charts: CCoordinateChart
    k0: AngularSymbol
    km1: AngularSymbol
    blocks: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def node_count(self):
        return self.node_params.shape[0]

    def m_hat(self, xi, nodes=slice(None)):
        """Normalized cluster symbols at every root, whose signed d-th
        power traces feed the counting coefficient integral: at
        frequencies xi (..., 2), (nodes, ..., L, 3, 3) in root order for
        the nodes selected by the index nodes (a slice is a block, an
        integer one node without the node axis), from one two-term jet
        per node.  The flat a0 and d_xi a0 enter without a node axis."""
        k1, k2 = self.charts.kappa1[nodes], self.charts.kappa2[nodes]
        return cluster_symbols(self.roots, TwoTermSymbol(
            np_principal_symbol(self.params, xi), self.km1[nodes](xi),
            _principal_x_derivative(self.params, k1, k2, xi),
            _principal_xi_derivative(self.params, xi),
        ))


def np_symbol_field(surface, params, quad, angles=64):
    """Extract the two-term boundary symbol at every quadrature node.

    quad is a SurfaceQuadrature (nodes, weights, parameters).  The nodes
    go in blocks of at most _BLOCK_POINTS ladder x direction points (4
    nodes at 64 directions), each with one chart kernel call on its
    stacked charts and one ladder fit.  The cluster symbols are taken at
    the essential spectrum of the material.  The measured degree 0
    symbol is compared with the closed flat-boundary form at every node
    and direction; disagreement beyond _K0_TOL aborts, naming the node.
    The diagnostics are maxima over the nodes.
    """
    roots = essential_spectrum(params)
    charts = c_chart(surface, quad.params[:, 0], quad.params[:, 1])
    blocks = _node_blocks([_LADDER[2] * angles] * quad.size)
    fits = [
        homogeneous_parts(
            lambda z: chart_kernel(params, charts[b0:b1, None, None], z), angles, first_node=b0
        )
        for b0, b1 in zip(blocks[:-1], blocks[1:])
    ]
    k0, km1 = (
        angular_fourier_symbol(
            HomogeneousKernelPart(degree, np.concatenate([fit[j].samples for fit in fits]))
        )
        for j, degree in enumerate((-2, -1))
    )
    thetas = 2.0 * np.pi * np.arange(angles) / angles
    xis = np.column_stack([np.cos(thetas), np.sin(thetas)])
    err = np.abs(k0(xis) - np_principal_symbol(params, xis)).max(axis=(-3, -2, -1))
    _raise_at_node(err > _K0_TOL, 0, "extracted degree 0 symbol off closed form by %.3e", err)
    diagnostics = {
        key: float(max(fit[2][key].max() for fit in fits))
        for key in ("ladder_drift", "fit_residual", "odd_defect")
    }
    return SymbolField(
        surface=surface,
        params=params,
        node_params=np.array(quad.params),
        weights=np.array(quad.weights),
        roots=roots,
        charts=charts,
        k0=k0,
        km1=km1,
        blocks=blocks,
        diagnostics=dict(diagnostics, k0_max_err=float(err.max())),
    )
