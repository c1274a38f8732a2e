"""Closed star-shaped surfaces and curvature-aligned boundary charts.

Every supported surface is a radial graph over the unit sphere,
X(theta, phi) = rho(theta, phi) u(theta, phi) with u the unit radial
direction, so points, normals, fundamental forms and ray intersections
all reduce to the scalar field rho and its first two angular
derivatives.  Supported kinds:

    sphere        rho = R
    ellipsoid     rho = (sum_i (u_i / a_i)^2)^(-1/2)
    radial_graph  rho = 1 + sum c_lm Y_lm(theta, phi)

The geometry is array native: angles, points (..., 3) and chart
coordinates (..., 2) may carry any leading shape, and a single point is
the case with no leading axes.  Every surface kind takes the same path.

Charts: a curvature-aligned tangent chart at a surface point carries
an orthonormal frame (e1, e2, n) with e1, e2 principal directions
(kappa1 <= kappa2) and n the outward normal; the surface is locally
the graph q = origin + w1 e1 + w2 e2 + F(w) n with F(0) = 0,
grad F(0) = 0 and Hess F(0) = diag(kappa1, kappa2).  consistent_chart
transports such a frame to nearby chart points, a whole (..., 2) stack
of chart coordinates at once; the transported frames are not principal,
and no chart is built at the new points.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

_POLE_EPS = 1e-12


def _legendre(l, m, t):
    """Associated Legendre function P_l^m(t), 0 <= m <= l, and dP/dt.

    Condon-Shortley phase: P_m^m = (-1)^m (2m - 1)!! (1 - t^2)^(m/2),
    then the three-term recurrence in l and its t-derivative.
    """
    s = np.sqrt(1.0 - t * t)
    c = (-1.0) ** m * math.prod(range(1, 2 * m, 2))
    p = c * s**m
    dp = -m * c * t * s ** (m - 2) if m else np.zeros_like(t)
    p_prev = dp_prev = np.zeros_like(t)
    for k in range(m + 1, l + 1):
        f0, f1 = -(k + m - 1) / (k - m), (2 * k - 1) / (k - m)
        p, p_prev = f0 * p_prev + f1 * t * p, p
        dp, dp_prev = f0 * dp_prev + (f1 * t * dp + f1 * p_prev), dp
    return p, dp


def _real_sph_harm_jet(l, m, theta, phi):
    """Real spherical harmonic Y_lm and its theta/phi derivatives.

    Returns (Y, Yt, Yp, Ytt, Ytp, Ypp), each broadcast over theta and
    phi.  Real convention: m > 0 pairs with cos(m phi), m < 0 with
    sin(|m| phi), and the associated Legendre factor carries the
    Condon-Shortley phase (-1)^m.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    am = abs(m)
    t = np.cos(theta)
    st = np.sin(theta)
    p, p1 = _legendre(l, am, t)
    one_mt2 = np.maximum(1.0 - t * t, _POLE_EPS)
    # associated Legendre equation gives the second x-derivative
    p2 = (2.0 * t * p1 - (l * (l + 1) - am * am / one_mt2) * p) / one_mt2
    pt = -st * p1
    ptt = -t * p1 + st * st * p2
    nrm = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - am) / math.factorial(l + am)
    )
    if m == 0:
        f, fp, fpp = np.ones_like(phi), np.zeros_like(phi), np.zeros_like(phi)
        nrm_f = nrm
    elif m > 0:
        f, fp, fpp = np.cos(m * phi), -m * np.sin(m * phi), -m * m * np.cos(m * phi)
        nrm_f = nrm * math.sqrt(2.0)
    else:
        f, fp, fpp = np.sin(am * phi), am * np.cos(am * phi), -am * am * np.sin(am * phi)
        nrm_f = nrm * math.sqrt(2.0)
    return (
        nrm_f * p * f,
        nrm_f * pt * f,
        nrm_f * p * fp,
        nrm_f * ptt * f,
        nrm_f * pt * fp,
        nrm_f * p * fpp,
    )


def _radial_direction_jet(theta, phi):
    """Unit direction u(theta, phi) with first and second derivatives,
    each of shape (..., 3)."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    zero = np.zeros_like(st)
    u = np.stack([st * cp, st * sp, ct], axis=-1)
    ut = np.stack([ct * cp, ct * sp, -st], axis=-1)
    up = np.stack([-st * sp, st * cp, zero], axis=-1)
    utt = -u
    utp = np.stack([-ct * sp, ct * cp, zero], axis=-1)
    upp = np.stack([-st * cp, -st * sp, zero], axis=-1)
    return u, ut, up, utt, utp, upp


def _angles(p, r):
    """Polar and azimuthal angles of points p (..., 3) with norms r."""
    return np.arccos(np.clip(p[..., 2] / r, -1.0, 1.0)), np.arctan2(p[..., 1], p[..., 0])


@dataclass(frozen=True)
class ParametrizedSurface:
    """Closed surface given as a radial graph over the unit sphere."""

    kind: str
    params: dict = field(default_factory=dict)

    def rho_jet(self, theta, phi):
        """rho and its angular derivatives (r, rt, rp, rtt, rtp, rpp),
        each broadcast over theta and phi."""
        theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
        if self.kind == "sphere":
            zero = np.zeros(theta.shape)
            return zero + float(self.params.get("radius", 1.0)), zero, zero, zero, zero, zero
        if self.kind == "ellipsoid":
            a, b, c = (float(self.params[k]) for k in ("a", "b", "c"))
            st, ct = np.sin(theta), np.cos(theta)
            sp, cp = np.sin(phi), np.cos(phi)
            ia2, ib2, ic2 = 1.0 / a**2, 1.0 / b**2, 1.0 / c**2
            aa = cp * cp * ia2 + sp * sp * ib2
            aa_p = np.sin(2.0 * phi) * (ib2 - ia2)
            aa_pp = 2.0 * np.cos(2.0 * phi) * (ib2 - ia2)
            g = st * st * aa + ct * ct * ic2
            g_t = np.sin(2.0 * theta) * (aa - ic2)
            g_p = st * st * aa_p
            g_tt = 2.0 * np.cos(2.0 * theta) * (aa - ic2)
            g_tp = np.sin(2.0 * theta) * aa_p
            g_pp = st * st * aa_pp
            return _inverse_sqrt_jet(g, g_t, g_p, g_tt, g_tp, g_pp)
        if self.kind == "radial_graph":
            jet = [np.ones(theta.shape)] + [np.zeros(theta.shape) for _ in range(5)]
            for (l, m), c in self._harmonics():
                for acc, y in zip(jet, _real_sph_harm_jet(l, m, theta, phi)):
                    acc += c * y
            if np.any(jet[0] <= 0.0):
                raise ValueError("radial graph not star shaped at this point")
            return tuple(jet)
        raise ValueError("unknown surface kind: %r" % self.kind)

    def _harmonics(self):
        h = self.params.get("harmonics", {})
        if isinstance(h, dict):
            return [((int(l), int(m)), float(c)) for (l, m), c in h.items()]
        return [((int(l), int(m)), float(c)) for l, m, c in h]

    def position(self, theta, phi):
        r = self.rho_jet(theta, phi)[0]
        u = _radial_direction_jet(theta, phi)[0]
        return np.expand_dims(r, -1) * u

    def jet(self, theta, phi):
        """Position, tangent and second derivative vectors, normal, I, II.

        II uses the outward normal, so the unit sphere has
        kappa1 = kappa2 = -1 in this convention.
        """
        r, rt, rp, rtt, rtp, rpp = self.rho_jet(theta, phi)
        u, ut, up, utt, utp, upp = _radial_direction_jet(theta, phi)
        x = r * u
        xt = rt * u + r * ut
        xp = rp * u + r * up
        xtt = rtt * u + 2.0 * rt * ut + r * utt
        xtp = rtp * u + rt * up + rp * ut + r * utp
        xpp = rpp * u + 2.0 * rp * up + r * upp
        nv = np.cross(xt, xp)
        nn = np.linalg.norm(nv)
        if nn == 0.0:
            raise ValueError("degenerate parametrization point")
        normal = nv / nn
        first = np.array([[xt @ xt, xt @ xp], [xt @ xp, xp @ xp]])
        second = np.array(
            [[normal @ xtt, normal @ xtp], [normal @ xtp, normal @ xpp]]
        )
        return {
            "x": x,
            "xt": xt,
            "xp": xp,
            "normal": normal,
            "area": nn,
            "I": first,
            "II": second,
        }

    def implicit_value(self, point):
        """g(p) = |p| - rho(p direction); zero exactly on the surface."""
        p = np.asarray(point, dtype=float)
        r = np.linalg.norm(p, axis=-1)
        if np.any(r == 0.0):
            raise ValueError("origin has no radial direction")
        return r - self.rho_jet(*_angles(p, r))[0]

    def implicit_gradient(self, point):
        """Gradient of g; points outward, normalizes to the unit normal."""
        p = np.asarray(point, dtype=float)
        r = np.linalg.norm(p, axis=-1)
        theta, phi = _angles(p, r)
        _, rt, rp, _, _, _ = self.rho_jet(theta, phi)
        st = np.maximum(np.sin(theta), _POLE_EPS)
        ct, sp, cp = np.cos(theta), np.sin(phi), np.cos(phi)
        that = np.stack([ct * cp, ct * sp, -st], axis=-1)
        phat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
        grad_s2 = np.expand_dims(rt, -1) * that + np.expand_dims(rp / st, -1) * phat
        r = np.expand_dims(r, -1)
        return p / r - grad_s2 / r

    def normal(self, point):
        g = self.implicit_gradient(point)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)


def _inverse_sqrt_jet(g, gt, gp, gtt, gtp, gpp):
    """Jet of g^(-1/2) from the jet of g."""
    r = g ** (-0.5)
    c1 = -0.5 * g ** (-1.5)
    c2 = 0.75 * g ** (-2.5)
    return (
        r,
        c1 * gt,
        c1 * gp,
        c2 * gt * gt + c1 * gtt,
        c2 * gt * gp + c1 * gtp,
        c2 * gp * gp + c1 * gpp,
    )


def make_surface(kind, **params):
    """Factory for the supported surface kinds.

    sphere(radius=1), ellipsoid(a, b, c),
    radial_graph(harmonics={(l, m): coeff} or [[l, m, coeff], ...]).
    """
    if kind == "sphere":
        params.setdefault("radius", 1.0)
    elif kind == "ellipsoid":
        for k in ("a", "b", "c"):
            if k not in params:
                raise ValueError("ellipsoid needs semi-axes a, b, c")
    elif kind == "radial_graph":
        params.setdefault("harmonics", {})
    else:
        raise ValueError("unknown surface kind: %r" % kind)
    return ParametrizedSurface(kind=kind, params=params)


def principal_curvatures(surface, theta, phi):
    """Principal curvatures and directions at a parameter point.

    Returns (kappa1, kappa2, e1, e2, normal) with kappa1 <= kappa2,
    e1, e2 orthonormal tangent vectors along the principal directions
    and (e1, e2, normal) right handed.  Curvature sign follows the
    outward normal: the unit sphere gives kappa = -1.  At umbilic
    points (kappa1 = kappa2) e1 is the unit theta tangent.
    """
    jet = surface.jet(theta, phi)
    # II v = kappa I v with I = L L^T: W = L^-1 II L^-T, v = L^-T y
    inv = np.linalg.inv(np.linalg.cholesky(jet["I"]))
    w = inv @ jet["II"] @ inv.T
    vals, y = np.linalg.eigh(w)
    # at an umbilic every tangent is principal: pin e1 to the theta
    # tangent rather than let eigensolver rounding pick it
    umbilic = abs(w[0, 1]) + abs(w[0, 0] - w[1, 1]) <= 1e-12 * max(1.0, np.abs(w).max())
    v = (1.0, 0.0) if umbilic else inv.T @ y[:, 0]
    e1 = v[0] * jet["xt"] + v[1] * jet["xp"]
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(jet["normal"], e1)
    return vals[0], vals[1], e1, e2, jet["normal"]


@dataclass(frozen=True)
class CCoordinateChart:
    """Curvature-aligned tangent-plane graph chart.

    origin is on the surface, (e1, e2, n) orthonormal right handed
    with n outward and e1, e2 principal directions for the principal
    curvatures kappa1 <= kappa2.  The height F(w) solves the ray
    intersection origin + w1 e1 + w2 e2 + F n on the surface and is
    defined for |w| <= radius.
    """

    surface: ParametrizedSurface
    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    n: np.ndarray
    kappa1: float
    kappa2: float
    radius: float

    def _plane_point(self, w):
        return self.origin + w[..., :1] * self.e1 + w[..., 1:] * self.e2

    def height(self, w):
        """F(w) for chart coordinates w of shape (..., 2).

        One Newton solve along n runs over all points at once; points
        where it stalls or fails to converge fall back to bracketed
        root finding.
        """
        w = np.asarray(w, dtype=float)
        if np.any(np.linalg.norm(w, axis=-1) > self.radius):
            raise ValueError("chart coordinates outside chart radius")
        base = self._plane_point(w).reshape(-1, 3)
        flat = w.reshape(-1, 2)
        t = -0.5 * (self.kappa1 * flat[:, 0] ** 2 + self.kappa2 * flat[:, 1] ** 2)
        scale = np.linalg.norm(self.origin)
        todo = np.arange(t.size)
        stalled = []
        for _ in range(60):
            if not todo.size:
                break
            p = base[todo] + t[todo, None] * self.n
            g = self.surface.implicit_value(p)
            live = np.abs(g) >= 1e-14 * max(1.0, scale)
            todo, p, g = todo[live], p[live], g[live]
            dg = self.surface.implicit_gradient(p) @ self.n
            ok = dg > 0.0
            stalled.append(todo[~ok])
            todo = todo[ok]
            t[todo] -= g[ok] / dg[ok]
        stalled = np.concatenate(stalled + [todo])
        if stalled.size:
            t[stalled] = self._height_bisect(base[stalled], scale)
        return t.reshape(w.shape[:-1])[()]

    def _height_bisect(self, base, scale):
        """Heights along n for chart-plane points base (k, 3): one
        bisection over all of them, each stopping at width
        1e-15 + 8.9e-16 |t|."""
        span = 0.9 * max(1.0, scale)
        f = lambda t: self.surface.implicit_value(base + t[:, None] * self.n)
        lo, hi = np.full(len(base), -span), np.full(len(base), span)
        f_lo = f(lo)
        if np.any(f_lo * f(hi) > 0.0):
            raise ValueError("chart ray does not cross the surface")
        while True:
            mid = 0.5 * (lo + hi)
            live = np.abs(hi - lo) > 1e-15 + 8.9e-16 * np.abs(mid)
            if not live.any():
                return mid
            up = f(mid) * f_lo > 0.0
            lo = np.where(live & up, mid, lo)
            hi = np.where(live & ~up, mid, hi)

    def surface_point(self, w):
        w = np.asarray(w, dtype=float)
        return self._plane_point(w) + np.expand_dims(self.height(w), -1) * self.n

    def height_gradient(self, w):
        """grad F(w) from the implicit surface function."""
        g = self.surface.implicit_gradient(self.surface_point(w))
        gn = np.expand_dims(g @ self.n, -1)
        return -np.stack([g @ self.e1, g @ self.e2], axis=-1) / gn

    def normal_at(self, w):
        return self.surface.normal(self.surface_point(w))


def c_chart(surface, theta, phi, radius=None):
    """Curvature-aligned chart at the parameter point (theta, phi)."""
    k1, k2, e1, e2, n = principal_curvatures(surface, theta, phi)
    origin = surface.position(theta, phi)
    if radius is None:
        kmax = max(abs(k1), abs(k2), 1.0 / max(np.linalg.norm(origin), 1e-12))
        radius = 0.45 / kmax
    chart = CCoordinateChart(
        surface=surface,
        origin=origin,
        e1=e1,
        e2=e2,
        n=n,
        kappa1=float(k1),
        kappa2=float(k2),
        radius=float(radius),
    )
    if abs(chart.height(np.zeros(2))) > 1e-10 * max(1.0, np.linalg.norm(origin)):
        raise ValueError("chart origin is off the surface")
    return chart


def consistent_chart(surface, base, w):
    """Frames transported from base to the points with chart coordinates w.

    w has shape (..., 2).  The frame at each new point q is (f1, f2, n)
    with n the normal at q and f1, f2 the Loewdin (symmetric)
    orthonormalization of the projections of base.e1, base.e2 onto the
    tangent plane at q; it agrees with the base frame to second order
    in |w|.  Returns (q, dz, u): the points q (..., 3), the Jacobians
    dz (..., 2, 2) of the coordinate change (rows: new frame, columns:
    base coordinates) and the orthogonal frame changes u (..., 3, 3)
    with u_ij = base_i . new_j.  One height solve gives q, and one
    implicit gradient at q gives both n and grad F.
    """
    w = np.asarray(w, dtype=float)
    q = base.surface_point(w)
    g = surface.implicit_gradient(q)
    n_new = g / np.linalg.norm(g, axis=-1, keepdims=True)
    r_base = np.column_stack([base.e1, base.e2, base.n])
    tangents = r_base[:, :2]
    p = tangents - n_new[..., :, None] * (n_new @ tangents)[..., None, :]
    vals, vecs = np.linalg.eigh(np.swapaxes(p, -1, -2) @ p)
    if np.any(vals[..., 0] <= 1e-12):
        raise ValueError("frame transport degenerate: normals nearly opposite")
    inv_sqrt = (vecs * vals[..., None, :] ** -0.5) @ np.swapaxes(vecs, -1, -2)
    f = p @ inv_sqrt
    grad_f = -(g @ tangents) / (g @ base.n)[..., None]
    d = tangents + base.n[:, None] * grad_f[..., None, :]
    dz = np.swapaxes(f, -1, -2) @ d
    u = r_base.T @ np.concatenate([f, n_new[..., None]], axis=-1)
    return q, dz, u


@dataclass(frozen=True)
class SurfaceQuadrature:
    """Nodes, weights, normals and parameters of a product rule."""

    points: np.ndarray
    weights: np.ndarray
    normals: np.ndarray
    params: np.ndarray

    @property
    def size(self):
        return self.points.shape[0]


def surface_quadrature(surface, n):
    """Gauss-Legendre (cos theta) x trapezoid (phi) surface rule.

    n Gauss nodes in cos theta and 2n equispaced phi nodes; exact for
    smooth integrands to spectral accuracy on the supported kinds.
    Weights include the area element, so weights.sum() approximates
    the total surface area.
    """
    if n < 4:
        raise ValueError("need at least 4 latitude nodes")
    xs, ws = leggauss(n)
    phis = 2.0 * np.pi * np.arange(2 * n) / (2 * n)
    wphi = 2.0 * np.pi / (2 * n)
    pts, wts, nrms, prms = [], [], [], []
    for x, wg in zip(xs, ws):
        theta = math.acos(x)
        st = math.sin(theta)
        for phi in phis:
            jet = surface.jet(theta, phi)
            pts.append(jet["x"])
            wts.append(wg * wphi * jet["area"] / st)
            nrms.append(jet["normal"])
            prms.append((theta, phi))
    return SurfaceQuadrature(
        points=np.array(pts),
        weights=np.array(wts),
        normals=np.array(nrms),
        params=np.array(prms),
    )
