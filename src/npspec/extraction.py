"""Boundary symbol extraction from the double layer kernel.

Pipeline per surface node: localize the kernel in a curvature-aligned
chart, split the chart kernel into homogeneous parts of degree -2 and
-1 by a radial extrapolation ladder, map each part to its planar
symbol through the angular Fourier multiplier of the kernel transform
a(x, xi) = int exp(+i z.xi) k(x, z) dz, then assemble the normalized
cluster symbols that drive the eigenvalue counting coefficients.  All
node charts come from one stacked c_chart call, and each node has one
cluster symbol evaluator that returns every root's symbol from one
evaluation of the node's two-term jet.  The jet's tangential derivative
d_x a0 is closed form in the node's principal curvatures; its frequency
derivative d_xi a0 is closed form in the flat symbol.

The degree -2 part must be odd (its even part has no classical
symbol); the resulting degree 0 symbol is checked against the closed
flat-boundary form at every node.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .elasticity import essential_spectrum, np_kernel, np_principal_symbol
from .surfaces import CCoordinateChart, c_chart
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


def chart_kernel(params, chart, z):
    """Double layer kernel in chart coordinates, with area factor.

    For planar offsets z of shape (..., 2) (the chart coordinates of x
    minus those of y, x fixed at the chart origin), evaluates
    K(x, y(-z)) nu-contracted as 3x3 matrices in the chart frame times
    the chart area element sqrt(1 + |grad F|^2), so that integrals
    against chart coordinates reproduce surface integrals.  Returns
    shape (..., 3, 3).
    """
    q, nu, area = chart.geometry(-np.asarray(z, dtype=float))
    k_lab = np_kernel(params, chart.origin, q, nu)
    frame = np.column_stack([chart.e1, chart.e2, chart.n])
    return area[..., None, None] * (frame.T @ k_lab @ frame)


@dataclass(frozen=True)
class HomogeneousKernelPart:
    """Angular samples of one homogeneous kernel component.

    samples[j] is the 3x3 coefficient at direction angle
    2 pi j / M, so the kernel contribution is
    samples(theta) |z|^degree.  Evaluation between grid angles uses
    trigonometric interpolation; the sampled function is band limited
    to |n| < M/2 for the kernels handled here.
    """

    degree: int
    samples: np.ndarray

    @property
    def angle_count(self):
        return self.samples.shape[0]

    @cached_property
    def _interpolator(self):
        return _TrigSeries.interpolating(self.samples)

    def __call__(self, theta):
        return self._interpolator(theta).real


class _TrigSeries:
    """Trigonometric series sum_n c_n exp(i n theta).

    ns holds the integer modes and coeffs the coefficients, shape
    (len(ns), ...).  A call evaluates an array of angles of any shape
    and returns shape angles.shape + coeffs.shape[1:].
    """

    def __init__(self, ns, coeffs):
        self._ns = np.asarray(ns, dtype=float)
        self._coeffs = np.asarray(coeffs)

    @classmethod
    def interpolating(cls, samples):
        """Trigonometric interpolant of samples (M, ...) over the angles
        2 pi j / M, M even.  The FFT is taken once.  The Nyquist
        coefficient is split evenly over the modes -M/2 and M/2, so it
        enters as a cosine and real samples interpolate to real values."""
        samples = np.asarray(samples)
        m = samples.shape[0]
        if m % 2:
            raise ValueError("trigonometric interpolation needs an even sample count")
        coeffs = np.fft.fft(samples, axis=0) / m
        coeffs[m // 2] *= 0.5
        ns = np.append(np.fft.fftfreq(m, 1.0 / m), m // 2)
        return cls(ns, np.concatenate([coeffs, coeffs[m // 2 : m // 2 + 1]]))

    def __call__(self, theta):
        phase = np.exp(1j * self._ns * np.asarray(theta, dtype=float)[..., None])
        return np.tensordot(phase, self._coeffs, axes=(-1, 0))


def homogeneous_parts(kernel_fn, angles=64):
    """Split a chart kernel into degree -2 and -1 homogeneous parts.

    kernel_fn maps planar offsets z (..., 2) to 3x3 matrices
    (..., 3, 3); it is called once, on the whole direction-by-ladder
    block.  Along each of `angles` equispaced directions the scaled
    values eps^2 kernel_fn(eps u) are fitted by a polynomial in eps over
    the extrapolation ladder _LADDER; the constant and linear
    coefficients are the degree -2 and -1 angular samples.  The degree
    -2 part must be odd under u -> -u to the relative tolerance _ODD_TOL.

    Returns (part_m2, part_m1, diagnostics).
    """
    if angles < 64 or angles % 2:
        raise ValueError("need an even direction count of at least 64")
    ladder = np.geomspace(*_LADDER)
    s = ladder[-1]
    design = np.vander(ladder / s, 5, increasing=True)
    thetas = 2.0 * np.pi * np.arange(angles) / angles
    u = np.column_stack([np.cos(thetas), np.sin(thetas)])
    vals = ladder[:, None, None, None] ** 2 * kernel_fn(ladder[:, None, None] * u)
    flat = vals.reshape(ladder.size, angles * 9)
    coef, res, _, _ = np.linalg.lstsq(design, flat, rcond=None)
    k0 = coef[0].reshape(angles, 3, 3)
    k1 = (coef[1] / s).reshape(angles, 3, 3)
    resid = math.sqrt(res.max() / ladder.size) if res.size else 0.0
    short = np.linalg.lstsq(design[:-2], flat[:-2], rcond=None)[0]
    drift = np.abs(short[0] - coef[0]).max()
    scale = max(np.abs(k0).max(), 1e-30)
    half = angles // 2
    odd_defect = np.abs(k0 + np.roll(k0, half, axis=0)).max()
    if odd_defect > _ODD_TOL * scale:
        raise ValueError(
            "degree -2 kernel part is not odd: defect %.3e (scale %.3e)"
            % (odd_defect, scale)
        )
    k0 = 0.5 * (k0 - np.roll(k0, half, axis=0))
    diagnostics = {
        "fit_residual": resid,
        "ladder_drift": drift,
        "odd_defect": odd_defect / scale,
    }
    return (
        HomogeneousKernelPart(degree=-2, samples=k0),
        HomogeneousKernelPart(degree=-1, samples=k1),
        diagnostics,
    )


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
    """Homogeneous matrix symbol stored by angular Fourier modes.

    Evaluates sum_n modes[n] exp(i n phi(xi)) |xi|^degree at nonzero
    planar frequencies xi of shape (..., 2); the result has shape
    (..., 3, 3).
    """

    degree: int
    modes: dict

    @cached_property
    def _series(self):
        coeffs = np.array(list(self.modes.values())).reshape(-1, 3, 3)
        return _TrigSeries(list(self.modes), coeffs)

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        r = np.linalg.norm(xi, axis=-1)
        if np.any(r == 0.0):
            raise ValueError("xi = 0 rejected")
        phi = np.arctan2(xi[..., 1], xi[..., 0])
        return self._series(phi) * r[..., None, None] ** self.degree


def angular_fourier_symbol(part):
    """Planar symbol of a homogeneous kernel part.

    part.degree = -2 gives a degree 0 symbol (odd modes only; even
    mode content beyond _EVEN_TOL relative is an error), part.degree =
    -1 gives a degree -1 symbol.  The two-sided angular Fourier
    coefficients c_n, |n| < M/2, all come from one FFT of the samples.
    """
    a = -part.degree
    m = part.angle_count
    scale = max(np.abs(part.samples).max(), 1e-30)
    coeffs = np.fft.fft(part.samples, axis=0) / m
    ns = np.arange(-(m // 2 - 1), m // 2)
    mags = np.abs(coeffs[ns]).max(axis=(1, 2))
    even = (ns % 2 == 0) & (a == 2)
    bad_even = mags[even].max(initial=0.0)
    if bad_even > _EVEN_TOL * scale:
        raise ValueError(
            "even angular content %.3e in a degree -2 kernel part" % (bad_even / scale)
        )
    modes = {
        int(n): fourier_multiplier(n, a) * coeffs[n]
        for n, mag, skip in zip(ns, mags, even)
        if not skip and mag >= 1e-13 * scale
    }
    return AngularSymbol(degree=a - 2, modes=modes)


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
    chart frame (e1, e2, n), (..., 2, 3, 3) for frequencies xi (..., 2).

    The flat symbol a0(xi) is fixed in the chart frame, and moving the
    base point along e_al tilts that frame by the Weingarten map, so
    d_{x_al} a0 = [kappa_al T_al, a0] with T_al = E_{n al} - E_{al n}.
    """
    a0 = np_principal_symbol(params, xi)[..., None, :, :]
    tilt = np.zeros((2, 3, 3))
    for al, kappa in enumerate((kappa1, kappa2)):
        tilt[al, 2, al], tilt[al, al, 2] = kappa, -kappa
    return tilt @ a0 - a0 @ tilt


@dataclass(frozen=True)
class SymbolField:
    """Extracted two-term boundary symbol data over surface nodes.

    charts holds the curvature-aligned charts of all nodes stacked
    (charts[i] is node i's) and roots the material's essential
    spectrum.  Per node: degree 0 and -1 symbol evaluators and the
    normalized cluster symbol evaluator m_hat, whose signed d-th power
    traces feed the counting coefficient integral.  Every evaluator
    takes a stack of frequencies xi of shape (..., 2); k0 and km1
    return (..., 3, 3) and m_hat returns every spectral root's symbol,
    (..., L, 3, 3) in root order.
    """

    surface: object
    params: object
    node_params: np.ndarray
    weights: np.ndarray
    roots: SpectralPolynomial
    charts: CCoordinateChart
    k0: list
    km1: list
    m_hat: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def node_count(self):
        return self.node_params.shape[0]


def np_symbol_field(surface, params, quad, angles=64):
    """Extract the two-term boundary symbol at every quadrature node.

    quad is a SurfaceQuadrature (nodes, weights, parameters).  The
    cluster symbols are taken at the essential spectrum of the
    material.  The measured degree 0 symbol is compared with the closed
    flat-boundary form at every node and direction; disagreement beyond
    _K0_TOL aborts.
    """
    roots = essential_spectrum(params)
    charts = c_chart(surface, quad.params[:, 0], quad.params[:, 1])
    k0s, km1s, m_hats = [], [], []
    k0_err = 0.0
    fit_resid = 0.0
    thetas = 2.0 * np.pi * np.arange(angles) / angles
    xis = np.column_stack([np.cos(thetas), np.sin(thetas)])
    k0_flat = np_principal_symbol(params, xis)
    for i in range(quad.size):
        chart = charts[i]
        p2, p1, diag = homogeneous_parts(lambda z: chart_kernel(params, chart, z), angles)
        fit_resid = max(fit_resid, diag["ladder_drift"])
        k0 = angular_fourier_symbol(p2)
        km1 = angular_fourier_symbol(p1)
        err = np.abs(k0(xis) - k0_flat).max()
        k0_err = max(k0_err, err)
        if err > _K0_TOL:
            raise ValueError(
                "extracted degree 0 symbol off closed form by %.3e at node %d"
                % (err, i)
            )
        k0s.append(k0)
        km1s.append(km1)
        m_hats.append(
            lambda xi, km1=km1, chart=chart: cluster_symbols(
                roots,
                TwoTermSymbol(
                    np_principal_symbol(params, xi), km1(xi),
                    _principal_x_derivative(params, chart.kappa1, chart.kappa2, xi),
                    _principal_xi_derivative(params, xi),
                ),
            )
        )
    return SymbolField(
        surface=surface,
        params=params,
        node_params=np.array(quad.params),
        weights=np.array(quad.weights),
        roots=roots,
        charts=charts,
        k0=k0s,
        km1=km1s,
        m_hat=m_hats,
        diagnostics={"k0_max_err": k0_err, "ladder_drift": fit_resid},
    )
