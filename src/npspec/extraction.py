"""Boundary symbol extraction from the double layer kernel.

Pipeline per surface node: localize the kernel in a curvature-aligned
chart, split the chart kernel into homogeneous parts of degree -2 and
-1 by a radial extrapolation ladder, map each part to its planar
symbol through the angular Fourier multiplier of the kernel transform
a(x, xi) = int exp(+i z.xi) k(x, z) dz, then assemble the normalized
cluster symbols that drive the eigenvalue counting coefficients.

The degree -2 part must be odd (its even part has no classical
symbol); the resulting degree 0 symbol is checked against the closed
flat-boundary form at every node.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .elasticity import essential_spectrum, np_kernel, np_principal_symbol
from .surfaces import c_chart, consistent_chart
from .symbols import (
    SpectralPolynomial,
    TwoTermSymbol,
    build_bi_symbol,
    root_derivative_scale,
)


# steps (h, 2h) of the transported-chart differences behind dx a0
_DX_STEPS = (1e-3, 2e-3)
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
    q = chart.surface_point(-np.asarray(z, dtype=float))
    g = chart.surface.implicit_gradient(q)
    gn = g @ chart.n
    if np.any(gn <= 0.0):
        raise ValueError("chart point beyond the horizon of the chart")
    g_norm = np.linalg.norm(g, axis=-1)
    k_lab = np_kernel(params, chart.origin, q, g / g_norm[..., None])
    frame = np.column_stack([chart.e1, chart.e2, chart.n])
    return (g_norm / gn)[..., None, None] * (frame.T @ k_lab @ frame)


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
        return _TrigInterpolator(self.samples)

    def __call__(self, theta):
        return self._interpolator(theta).real


class _TrigInterpolator:
    """Trigonometric interpolation of samples over equispaced angles.

    samples has shape (M, ...) at angles 2 pi j / M.  The FFT is taken
    once; a call evaluates an array of angles of any shape and returns
    shape angles.shape + samples.shape[1:].  The Nyquist mode enters as
    a cosine, so real samples interpolate to real values.
    """

    def __init__(self, samples):
        samples = np.asarray(samples)
        m = samples.shape[0]
        self._coeffs = np.fft.fft(samples, axis=0) / m
        self._ns = np.fft.fftfreq(m, 1.0 / m)
        self._nyquist = np.abs(self._ns) == m / 2

    def __call__(self, theta):
        arg = self._ns * np.asarray(theta, dtype=float)[..., None]
        phase = np.where(self._nyquist, np.cos(arg), np.exp(1j * arg))
        return np.tensordot(phase, self._coeffs, axes=(-1, 0))


def _default_ladder():
    return np.geomspace(1.0e-3, 1.0e-2, 8)


def homogeneous_parts(kernel_fn, angles=64, eps_ladder=None, odd_tol=1e-5):
    """Split a chart kernel into degree -2 and -1 homogeneous parts.

    kernel_fn maps planar offsets z (..., 2) to 3x3 matrices
    (..., 3, 3); it is called once, on the whole direction-by-ladder
    block.  Along each of `angles` equispaced directions the scaled
    values eps^2 kernel_fn(eps u) are fitted by a polynomial in eps over
    the extrapolation ladder; the constant and linear coefficients are
    the degree -2 and -1 angular samples.  The degree -2 part must be
    odd under u -> -u to the relative tolerance odd_tol.

    Returns (part_m2, part_m1, diagnostics).
    """
    if angles < 64 or angles % 2:
        raise ValueError("need an even direction count of at least 64")
    ladder = _default_ladder() if eps_ladder is None else np.asarray(eps_ladder, float)
    if ladder.size < 4 or ladder.min() < 1e-5 or ladder.max() > 1e-2:
        raise ValueError("ladder needs >= 4 radii inside [1e-5, 1e-2]")
    ladder = np.sort(ladder)
    deg = min(4, ladder.size - 2)
    s = ladder.max()
    design = np.vander(ladder / s, deg + 1, increasing=True)
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
    if odd_defect > odd_tol * scale:
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
    def _table(self):
        ns = np.array(list(self.modes), dtype=float)
        return ns, np.array(list(self.modes.values())).reshape(-1, 3, 3)

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        r = np.linalg.norm(xi, axis=-1)
        if np.any(r == 0.0):
            raise ValueError("xi = 0 rejected")
        phi = np.arctan2(xi[..., 1], xi[..., 0])
        ns, coeffs = self._table
        val = np.tensordot(np.exp(1j * ns * phi[..., None]), coeffs, axes=(-1, 0))
        return val * r[..., None, None] ** self.degree


def angular_fourier_symbol(part, even_tol=1e-8):
    """Planar symbol of a homogeneous kernel part.

    part.degree = -2 gives a degree 0 symbol (odd modes only; even
    mode content beyond even_tol relative is an error), part.degree =
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
    if bad_even > even_tol * scale:
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


@dataclass(frozen=True)
class SymbolField:
    """Extracted two-term boundary symbol data over surface nodes.

    Per node: the curvature-aligned chart, degree 0 and -1 symbol
    evaluators, the tangential x-derivative of the degree 0 symbol
    (indexed by chart direction), and per spectral root the normalized
    cluster symbol evaluator m_hat whose signed d-th power traces feed
    the counting coefficient integral.  Every evaluator takes a stack
    of frequencies xi of shape (..., 2) and returns (..., 3, 3); dxk0
    returns (..., 2, 3, 3).
    """

    surface: object
    params: object
    node_params: np.ndarray
    weights: np.ndarray
    roots: SpectralPolynomial
    charts: list
    k0: list
    km1: list
    dxk0: list
    m_hat: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def node_count(self):
        return self.node_params.shape[0]


def _dxk0_table(params, surface, chart, xis):
    """Tangential derivative of the degree 0 symbol at the unit
    directions xis (angles, 2), shape (angles, 2, 3, 3).

    Central differences of the flat principal symbol transported to
    chart points +-h e_al and pulled back to the base chart, with
    Richardson step halving over the steps h, 2h.  One consistent_chart
    call serves the whole (step, sign, axis) block of offsets.
    """
    h = np.array(_DX_STEPS)
    w = h[:, None, None, None] * np.array([1.0, -1.0])[:, None, None] * np.eye(2)
    _, dz, u = consistent_chart(surface, chart, w)
    eta = xis @ np.linalg.inv(dz)
    u = u[..., None, :, :]
    vals = u @ np_principal_symbol(params, eta) @ np.swapaxes(u, -1, -2)
    diffs = (vals[:, 0] - vals[:, 1]) / (2.0 * h[:, None, None, None, None])
    return np.moveaxis((4.0 * diffs[0] - diffs[1]) / 3.0, 0, 1)


def np_symbol_field(surface, params, quad, roots=None, angles=64, eps_ladder=None):
    """Extract the two-term boundary symbol at every quadrature node.

    quad is a SurfaceQuadrature (nodes, weights, parameters).  roots
    defaults to the essential spectrum of the material.  The measured
    degree 0 symbol is compared with the closed flat-boundary form at
    every node and direction; disagreement beyond _K0_TOL aborts.
    """
    if roots is None:
        roots = essential_spectrum(params)
    elif not isinstance(roots, SpectralPolynomial):
        roots = SpectralPolynomial(roots=tuple(roots))
    charts, k0s, km1s, dxk0s, m_hats = [], [], [], [], []
    k0_err = 0.0
    fit_resid = 0.0
    thetas = 2.0 * np.pi * np.arange(angles) / angles
    xis = np.column_stack([np.cos(thetas), np.sin(thetas)])
    k0_flat = np_principal_symbol(params, xis)
    for i in range(quad.size):
        th, ph = quad.params[i]
        chart = c_chart(surface, th, ph)
        kfun = lambda z: chart_kernel(params, chart, z)
        p2, p1, diag = homogeneous_parts(kfun, angles=angles, eps_ladder=eps_ladder)
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
        dx_interp = _TrigInterpolator(_dxk0_table(params, surface, chart, xis))
        dx_eval = lambda xi, f=dx_interp: f(np.arctan2(xi[..., 1], xi[..., 0]))
        two_term = TwoTermSymbol(
            dim=3,
            a0=lambda x, xi: np_principal_symbol(params, xi),
            a_m1=lambda x, xi, f=km1: f(xi),
            dx_a0=lambda x, xi, f=dx_eval: f(xi),
            dxi_a0=lambda x, xi: _principal_xi_derivative(params, xi),
        )
        node_m = []
        for idx in range(len(roots.roots)):
            b = build_bi_symbol(two_term, roots, idx)
            scale = root_derivative_scale(roots, idx)
            node_m.append(
                lambda xi, bm=b.a_m1, s=scale: bm(np.zeros(2), xi) / s
            )
        charts.append(chart)
        k0s.append(k0)
        km1s.append(km1)
        dxk0s.append(dx_eval)
        m_hats.append(node_m)
    return SymbolField(
        surface=surface,
        params=params,
        node_params=np.array(quad.params),
        weights=np.array(quad.weights),
        roots=roots,
        charts=charts,
        k0=k0s,
        km1=km1s,
        dxk0=dxk0s,
        m_hat=m_hats,
        diagnostics={"k0_max_err": k0_err, "ladder_drift": fit_resid},
    )
