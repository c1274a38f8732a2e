"""Explicit 3D elastostatics objects.

Material constants, the Kelvin fundamental solution, the elastic
Neumann-Poincare (double layer) kernel, flat-boundary principal
symbols, symmetrizer symbols and the closed-form sphere spectrum.

Normalizations are fixed so that on the unit sphere the constant
vector fields are eigenfunctions of the double layer operator with
eigenvalue 1/2 (the k = 1 mode of the exact sphere spectrum), and the
flat-limit symbol of the kernel equals np_principal_symbol under the
kernel transform a(x, xi) = int exp(+i z.xi) k(x, z) dz.
"""

from dataclasses import dataclass

import numpy as np

from .symbols import SpectralPolynomial


@dataclass(frozen=True)
class LameParams:
    """Lame constants with the derived material quantities.

    Admissibility: finite lam and mu, mu > 0 and 3 lam + 2 mu > 0
    (positive elastic energy), which makes lam + 2 mu > 0 and all
    derived constants finite.  Derived values:

        lam' = (lam + 3 mu) / (4 pi mu (lam + 2 mu))
        mu'  = (lam + mu)   / (4 pi mu (lam + 2 mu))
        kk   = mu / (2 (2 mu + lam))    (essential-spectrum half gap)
        m    = (lam + mu) / (2 (lam + 2 mu))
    """

    lam: float
    mu: float

    def __post_init__(self):
        if not (np.isfinite([self.lam, self.mu]).all() and self.mu > 0.0
                and 3.0 * self.lam + 2.0 * self.mu > 0.0):
            raise ValueError(
                "inadmissible material: need finite lam, mu with mu > 0 and 3 lam + 2 mu > 0"
            )

    @property
    def lam_prime(self):
        return (self.lam + 3.0 * self.mu) / (
            4.0 * np.pi * self.mu * (self.lam + 2.0 * self.mu)
        )

    @property
    def mu_prime(self):
        return (self.lam + self.mu) / (
            4.0 * np.pi * self.mu * (self.lam + 2.0 * self.mu)
        )

    @property
    def kk(self):
        return self.mu / (2.0 * (2.0 * self.mu + self.lam))

    @property
    def m(self):
        return (self.lam + self.mu) / (2.0 * (self.lam + 2.0 * self.mu))


def _offsets(x, y):
    """d = x - y of shape (..., 3) and |d| of shape (..., 1, 1), the
    shape that scales 3x3 blocks; coincident points are rejected."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("coincident points")
    return d, r[..., None, None]


def kelvin_matrix(params, x, y):
    """Fundamental solution of the Lame system.

    R_pq = lam' d_pq / |x-y| + mu' (x-y)_p (x-y)_q / |x-y|^3; symmetric
    in (p, q) and in (x, y), homogeneous of degree -1.  x and y
    broadcast over leading axes; the result has shape (..., 3, 3).
    """
    d, r = _offsets(x, y)
    dd = d[..., :, None] * d[..., None, :]
    return params.lam_prime * np.eye(3) / r + params.mu_prime * dd / r**3


def np_kernel(params, x, y, nu_y):
    """Kernel of the elastic double layer (Neumann-Poincare) operator.

    With d = x - y and nu the unit outward normal at y:

        K_pq = (1/2) [ mu (lam'-mu') (nu_p d_q - nu_q d_p) / |d|^3
                + ( mu (mu'-lam') d_pq - 6 mu mu' d_p d_q / |d|^2 )
                  (nu . d) / |d|^3 ]

    The first group is antisymmetric in (p, q) and odd in d of degree
    -2; on a surface nu . d = O(|d|^2), so the second group is weakly
    singular there.  The overall 1/2 makes constants on the unit
    sphere eigenfunctions with eigenvalue 1/2.  x, y and nu_y
    broadcast over leading axes; the result has shape (..., 3, 3).
    """
    d, r = _offsets(x, y)
    nu = np.asarray(nu_y, dtype=float)
    mu = params.mu
    dlm = params.lam_prime - params.mu_prime
    anti = nu[..., :, None] * d[..., None, :] - d[..., :, None] * nu[..., None, :]
    dd = d[..., :, None] * d[..., None, :]
    sym = (-mu * dlm) * np.eye(3) - 6.0 * mu * params.mu_prime * dd / r**2
    nd = np.sum(nu * d, axis=-1)[..., None, None]
    return 0.5 * (mu * dlm * anti + sym * nd) / r**3


def np_principal_symbol(params, xi):
    """Flat-boundary principal symbol of the double layer operator.

    (i pi mu (lam'-mu') / |xi|) [[0,0,-xi1],[0,0,-xi2],[xi1,xi2,0]];
    i times an antisymmetric real matrix, hence Hermitian, with
    eigenvalues {0, +kk, -kk} independent of xi.  xi has shape (..., 2);
    the result has shape (..., 3, 3).
    """
    xi = np.asarray(xi, dtype=float)
    r = np.linalg.norm(xi, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("xi = 0 rejected")
    a = np.zeros(xi.shape[:-1] + (3, 3))
    a[..., :2, 2] = -xi
    a[..., 2, :2] = xi
    c = 1j * np.pi * params.mu * (params.lam_prime - params.mu_prime)
    return c * a / r[..., None, None]


def lambda_projector(xi):
    """Rank-one projector xi xi^T / |xi|^2 on R^2."""
    xi = np.asarray(xi, dtype=float)
    r2 = xi @ xi
    if r2 == 0.0:
        raise ValueError("xi = 0 rejected")
    return np.outer(xi, xi) / r2


def _block_projector(xi):
    """diag(Lambda(xi), 1): projector onto span{xi direction, normal}."""
    p = np.zeros((3, 3))
    p[:2, :2] = lambda_projector(xi)
    p[2, 2] = 1.0
    return p


def single_layer_symbol(params, xi):
    """Principal symbol of the single layer operator.

    s_{-1}(xi) = (1 / (2 mu |xi|)) (m diag(Lambda(xi), 1) - E), with
    eigenvalues {(m-1)/(2 mu) double, -1/(2 mu)} at |xi| = 1, all
    negative for admissible materials.
    """
    xi = np.asarray(xi, dtype=float)
    r = np.linalg.norm(xi)
    return (params.m * _block_projector(xi) - np.eye(3)) / (2.0 * params.mu * r)


def symmetrizer_symbols(params, xi):
    """Symbols (r_1, q_mhalf, z_half) of S^-1, (-S)^(1/2), (-S)^(-1/2).

    Closed forms in the projector P = diag(Lambda, 1):

        r_1     = -2 mu |xi| (E + (lam+mu)/(lam+3 mu) P)
        q_mhalf = (2 mu |xi|)^(-1/2) (E - (1 - sqrt(1-m)) P)
        z_half  = (2 mu |xi|)^(+1/2) (E + (1/sqrt(1-m) - 1) P)

    The identities r = s^-1, q^2 = -s, z q = E are verified to 1e-12
    at the given xi before returning.
    """
    xi = np.asarray(xi, dtype=float)
    r = np.linalg.norm(xi)
    m = params.m
    mu = params.mu
    p = _block_projector(xi)
    eye = np.eye(3)
    r1 = -2.0 * mu * r * (eye + (params.lam + mu) / (params.lam + 3.0 * mu) * p)
    q = (eye - (1.0 - np.sqrt(1.0 - m)) * p) / np.sqrt(2.0 * mu * r)
    z = np.sqrt(2.0 * mu * r) * (eye + (1.0 / np.sqrt(1.0 - m) - 1.0) * p)
    s = single_layer_symbol(params, xi)
    scale = max(1.0, 2.0 * mu * r, 1.0 / (2.0 * mu * r))
    if np.linalg.norm(r1 @ s - eye) > 1e-12 * scale:
        raise ValueError("inverse identity violated")
    if np.linalg.norm(q @ q + s) > 1e-12 * scale:
        raise ValueError("square root identity violated")
    if np.linalg.norm(z @ q - eye) > 1e-12 * scale:
        raise ValueError("reciprocal root identity violated")
    return r1, q, z


def essential_spectrum(params):
    """Essential spectrum {-kk, 0, +kk} as a monic cubic.

    Roots sorted ascending; the polynomial is w (w^2 - kk^2).
    """
    k = params.kk
    return SpectralPolynomial(roots=(-k, 0.0, k))


def sphere_exact_eigenvalues(params, k_max):
    """Exact Neumann-Poincare eigenvalues on the unit sphere.

    Three sequences for k = 1..k_max:

        lam_k^0 = 3 / (2 (2k+1))
        lam_k^- = (3 lam - 2 mu (2k^2 - 2k - 3)) / (2 (lam+2mu)(4k^2-1))
        lam_k^+ = (-3 lam + 2 mu (2k^2 + 2k - 3)) / (2 (lam+2mu)(4k^2-1))

    lam_k^0 -> 0+ and is material independent; lam_k^-/+ approach
    -kk/+kk from above with first order tail kk/k (expansion of the
    formulas above; the k=1 entries can fall outside the cluster
    windows, e.g. lam_1^+ < 0).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    k = np.arange(1, k_max + 1, dtype=float)
    lam, mu = params.lam, params.mu
    den = 2.0 * (lam + 2.0 * mu) * (4.0 * k**2 - 1.0)
    lam0 = 3.0 / (2.0 * (2.0 * k + 1.0))
    lam_minus = (3.0 * lam - 2.0 * mu * (2.0 * k**2 - 2.0 * k - 3.0)) / den
    lam_plus = (-3.0 * lam + 2.0 * mu * (2.0 * k**2 + 2.0 * k - 3.0)) / den
    return lam0, lam_minus, lam_plus
