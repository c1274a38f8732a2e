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
grad F(0) = 0 and Hess F(0) = diag(kappa1, kappa2).  F solves
|p| - rho(p direction) = 0, one rho jet per Newton step (implicit).
"""

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.polynomial.legendre import leggauss

_POLE_EPS = 1e-12
# chart radius times the largest curvature scale at the chart origin
_CHART_REACH = 0.45
# chart points per node block of the assembly (patch points), of the
# symbol extraction (ladder x direction points) and of the coefficient
# integral (direction points): at about 2 KB of working arrays per point
# this bounds the memory of each
_BLOCK_POINTS = 2048
# the parameters each surface kind takes
SURFACE_PARAMS = {
    "sphere": ("radius",), "ellipsoid": ("a", "b", "c"), "radial_graph": ("harmonics",)
}


def _legendre(l, m, t):
    """Associated Legendre function P_l^m(t), 0 <= m <= l, and dP/dt.

    Condon-Shortley phase: P_m^m = (-1)^m (2m - 1)!! (1 - t^2)^(m/2),
    then the three-term recurrence in l and its t-derivative.  Powers
    go through float_power, as in _inverse_sqrt_jet.
    """
    s = np.sqrt(1.0 - t * t)
    c = (-1.0) ** m * math.prod(range(1, 2 * m, 2))
    p = c * np.float_power(s, m)
    dp = -m * c * t * np.float_power(s, m - 2) if m else np.zeros_like(t)
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
            for l, m, c in self.params["harmonics"]:
                for acc, y in zip(jet, _real_sph_harm_jet(l, m, theta, phi)):
                    acc += c * y
            if np.any(jet[0] <= 0.0):
                raise ValueError("radial graph not star shaped at this point")
            return tuple(jet)
        raise ValueError("unknown surface kind: %r" % self.kind)

    def position(self, theta, phi):
        r = self.rho_jet(theta, phi)[0]
        u = _radial_direction_jet(theta, phi)[0]
        return np.expand_dims(r, -1) * u

    def jet(self, theta, phi):
        """Position, tangent and second derivative vectors, normal, I, II.

        x, xt, xp and normal have shape (..., 3), area shape (...), and
        the fundamental forms I and II shape (..., 2, 2), over the
        broadcast shape of theta and phi.  II uses the outward normal,
        so the unit sphere has kappa1 = kappa2 = -1 in this convention.
        """
        r, rt, rp, rtt, rtp, rpp = (
            np.expand_dims(v, -1) for v in self.rho_jet(theta, phi)
        )
        u, ut, up, utt, utp, upp = _radial_direction_jet(theta, phi)
        x = r * u
        xt = rt * u + r * ut
        xp = rp * u + r * up
        xtt = rtt * u + 2.0 * rt * ut + r * utt
        xtp = rtp * u + rt * up + rp * ut + r * utp
        xpp = rpp * u + 2.0 * rp * up + r * upp
        nv = np.cross(xt, xp)
        nn = np.sqrt(_dot(nv, nv))
        if np.any(nn == 0.0):
            raise ValueError("degenerate parametrization point")
        normal = nv / nn[..., None]
        return {
            "x": x,
            "xt": xt,
            "xp": xp,
            "normal": normal,
            "area": nn,
            "I": _form(_dot(xt, xt), _dot(xt, xp), _dot(xp, xp)),
            "II": _form(_dot(normal, xtt), _dot(normal, xtp), _dot(normal, xpp)),
        }

    def implicit(self, point):
        """g(p) = |p| - rho(p direction), zero exactly on the surface, and
        its gradient, which points outward and normalizes to the unit
        normal: (g, grad g) of shapes (...) and (..., 3), from one rho jet."""
        p = np.asarray(point, dtype=float)
        r = np.linalg.norm(p, axis=-1)
        if np.any(r == 0.0):
            raise ValueError("origin has no radial direction")
        theta, phi = _angles(p, r)
        rho, rt, rp, _, _, _ = self.rho_jet(theta, phi)
        st = np.maximum(np.sin(theta), _POLE_EPS)
        ct, sp, cp = np.cos(theta), np.sin(phi), np.cos(phi)
        that = np.stack([ct * cp, ct * sp, -st], axis=-1)
        phat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
        grad_s2 = np.expand_dims(rt, -1) * that + np.expand_dims(rp / st, -1) * phat
        r3 = np.expand_dims(r, -1)
        return r - rho, p / r3 - grad_s2 / r3


def _dot(a, b):
    """Dot products over the last axis.  Each row is one BLAS dot, as
    for 1-d arrays, so a stacked call reproduces per-point calls."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(v):
    """Euclidean norms over the last axis, one BLAS dot per row: the
    arithmetic np.linalg.norm has for a single vector."""
    return np.sqrt(_dot(v, v))


def _form(e, f, g):
    """Symmetric 2 x 2 forms [[e, f], [f, g]] of shape (..., 2, 2)."""
    return np.stack([np.stack([e, f], axis=-1), np.stack([f, g], axis=-1)], axis=-2)


def _inverse_sqrt_jet(g, gt, gp, gtt, gtp, gpp):
    """Jet of g^(-1/2) from the jet of g.

    float_power is libm pow element by element, the arithmetic of a
    scalar g ** e; numpy's array power takes a SIMD pow that differs in
    the last bit, so with it a stacked jet would not reproduce per-point
    jets.
    """
    r = np.float_power(g, -0.5)
    c1 = -0.5 * np.float_power(g, -1.5)
    c2 = 0.75 * np.float_power(g, -2.5)
    return (
        r,
        c1 * gt,
        c1 * gp,
        c2 * gt * gt + c1 * gtt,
        c2 * gt * gp + c1 * gtp,
        c2 * gp * gp + c1 * gpp,
    )


def _harmonic_triples(harmonics):
    """(l, m, coeff) triples from [[l, m, coeff], ...]; an error names
    the first entry that is not three numbers with integer l and m (2.0
    and true are not integers), a finite coeff and |m| <= l."""
    for entry in harmonics:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3 and all(
            isinstance(v, numbers.Integral if j < 2 else numbers.Real) and not isinstance(v, bool)
            for j, v in enumerate(entry)
        ) and math.isfinite(entry[2])):
            raise ValueError(
                "harmonic %r is not [l, m, coeff] with integer l, m and finite coeff" % (entry,))
        if abs(entry[1]) > entry[0]:
            raise ValueError("harmonic (l, m) = (%d, %d) needs 0 <= |m| <= l" % tuple(entry[:2]))
    return tuple((int(l), int(m), float(c)) for l, m, c in harmonics)


def make_surface(kind, **params):
    """Factory for the supported surface kinds, each taking only its
    SURFACE_PARAMS: sphere(radius=1), ellipsoid(a, b, c) and
    radial_graph(harmonics=[[l, m, coeff], ...]), the harmonics stored as
    checked (l, m, coeff) triples and rho > 0 checked on a grid of
    4 l_max + 1 latitudes, both poles among them, and 8 l_max longitudes,
    whatever rule later samples the surface.  Any other kind or
    parameter is a ValueError that names it.
    """
    if kind not in SURFACE_PARAMS:
        raise ValueError("unknown surface kind: %r" % kind)
    for name in params:
        if name not in SURFACE_PARAMS[kind]:
            raise ValueError("surface kind %r takes no parameter %r" % (kind, name))
    if kind == "sphere":
        params.setdefault("radius", 1.0)
        if not 0.0 < params["radius"] < math.inf:
            raise ValueError("sphere radius %r is not positive and finite" % params["radius"])
    elif kind == "ellipsoid":
        for k in ("a", "b", "c"):
            if k not in params:
                raise ValueError("ellipsoid needs semi-axes a, b, c")
            if not 0.0 < params[k] < math.inf:
                raise ValueError(
                    "ellipsoid semi-axis %s = %r is not positive and finite" % (k, params[k]))
    else:
        params["harmonics"] = _harmonic_triples(params.get("harmonics", ()))
    surface = ParametrizedSurface(kind=kind, params=params)
    if kind == "radial_graph":
        l_max = max([1] + [l for l, _, _ in params["harmonics"]])
        theta = np.linspace(0.0, np.pi, 4 * l_max + 1)[:, None]
        # the m != 0 derivatives are infinite at the poles; rho raises
        with np.errstate(divide="ignore", invalid="ignore"):
            surface.rho_jet(theta, np.arange(8 * l_max) * (np.pi / (4 * l_max)))
    return surface


def axisymmetric(surface):
    """Whether the parameters make the surface symmetric about the z axis:
    a sphere, an ellipsoid with a = b, a radial graph with only m = 0."""
    if surface.kind == "ellipsoid":
        return float(surface.params["a"]) == float(surface.params["b"])
    if surface.kind == "radial_graph":
        return all(m == 0 for _, m, _ in surface.params["harmonics"])
    return surface.kind == "sphere"


def principal_curvatures(surface, theta, phi):
    """Principal curvatures and directions at parameter points.

    Returns (kappa1, kappa2, e1, e2, normal) over the broadcast shape of
    theta and phi, with kappa1 <= kappa2, e1, e2 orthonormal tangent
    vectors (..., 3) along the principal directions and (e1, e2, normal)
    right handed.  Curvature sign follows the outward normal: the unit
    sphere gives kappa = -1.  At umbilic points (kappa1 = kappa2) e1 is
    the unit theta tangent.  Each point of a stacked call equals the
    call at that point alone, bit for bit.
    """
    jet = surface.jet(theta, phi)
    # II v = kappa I v with I = L L^T: W = L^-1 II L^-T, v = L^-T y
    inv = np.linalg.inv(np.linalg.cholesky(jet["I"]))
    inv_t = np.swapaxes(inv, -1, -2)
    w = inv @ jet["II"] @ inv_t
    vals, y = np.linalg.eigh(w)
    # at an umbilic every tangent is principal: pin e1 to the theta
    # tangent rather than let eigensolver rounding pick it
    size = np.maximum(1.0, np.abs(w).max(axis=(-2, -1)))
    umbilic = np.abs(w[..., 0, 1]) + np.abs(w[..., 0, 0] - w[..., 1, 1]) <= 1e-12 * size
    v = np.where(umbilic[..., None], (1.0, 0.0), (inv_t @ y[..., :1])[..., 0])
    e1 = v[..., :1] * jet["xt"] + v[..., 1:] * jet["xp"]
    e1 /= _norm(e1)[..., None]
    e2 = np.cross(jet["normal"], e1)
    return vals[..., 0], vals[..., 1], e1, e2, jet["normal"]


@dataclass(frozen=True, eq=False)
class CCoordinateChart:
    """Curvature-aligned tangent-plane graph charts.

    origin is on the surface, (e1, e2, n) orthonormal right handed
    with n outward and e1, e2 principal directions for the principal
    curvatures kappa1 <= kappa2.  The height F(w) solves the ray
    intersection origin + w1 e1 + w2 e2 + F n on the surface and is
    defined for |w| <= radius.

    The fields may be stacked: origin, e1, e2, n of shape S + (3,) and
    kappa1, kappa2, radius of shape S hold one chart per index of S.
    Chart coordinates w of shape (..., 2) then broadcast against S, each
    point in its own chart, and chart[index] selects charts.
    """

    surface: ParametrizedSurface
    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    n: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray
    radius: np.ndarray

    def __getitem__(self, index):
        return CCoordinateChart(
            self.surface,
            *(np.asarray(getattr(self, f.name))[index] for f in fields(self)[1:]),
        )

    def _plane_point(self, w):
        return self.origin + w[..., :1] * self.e1 + w[..., 1:] * self.e2

    def height(self, w):
        """F(w) for chart coordinates w of shape (..., 2).

        One Newton solve along n runs over all points at once, started
        on the osculating quadric, each step one surface.implicit call;
        a point stops after the step taken from its first residual below
        1e-14 max(1, |origin|), so heights are at rounding level.  A point
        above that residual where grad g . n <= 0 (the normal line
        stalls), or still above it after 60 steps, is a ValueError.
        """
        w = np.asarray(w, dtype=float)
        if np.any(np.linalg.norm(w, axis=-1) > self.radius):
            raise ValueError("chart coordinates outside chart radius")
        shape = np.broadcast_shapes(w.shape[:-1], np.shape(self.kappa1))
        base = self._plane_point(w).reshape(-1, 3)
        # F = (kappa1 w1^2 + kappa2 w2^2) / 2 + O(|w|^3)
        t = (0.5 * (self.kappa1 * w[..., 0] ** 2 + self.kappa2 * w[..., 1] ** 2)).reshape(-1)
        # each point's chart normal and origin norm, flattened like base
        # (zero-stride views, not copies, for a single chart)
        n = np.broadcast_to(self.n, shape + (3,)).reshape(-1, 3)
        scale = np.broadcast_to(_norm(self.origin), shape).reshape(-1)
        tol = 1e-14 * np.maximum(1.0, scale)
        todo = np.arange(t.size)
        for _ in range(60):
            if not todo.size:
                break
            p = base[todo] + t[todo, None] * n[todo]
            g, grad = self.surface.implicit(p)
            live = np.abs(g) >= tol[todo]
            dg = _dot(grad, n[todo])
            ok = dg > 0.0
            stuck = np.count_nonzero(live & ~ok)
            if stuck:
                raise ValueError("chart height: grad g . n <= 0 at %d points" % stuck)
            # a point that passes the residual test still takes this step
            t[todo[ok]] -= g[ok] / dg[ok]
            todo = todo[live]
        if todo.size:
            raise ValueError("chart height: not converged in 60 steps at %d points" % todo.size)
        return t.reshape(shape)[()]

    def surface_point(self, w):
        w = np.asarray(w, dtype=float)
        return self._plane_point(w) + np.expand_dims(self.height(w), -1) * self.n

    def geometry(self, w):
        """Surface points q (..., 3), unit normals (..., 3) and area
        factors |grad g| / (grad g . n) at chart coordinates w (..., 2),
        from one height solve.  The area factor is the chart area element
        sqrt(1 + |grad F|^2); a point past the chart horizon, where the
        surface normal turns away from n, is a ValueError."""
        q = self.surface_point(w)
        _, g = self.surface.implicit(q)
        gn = _dot(g, self.n)
        if np.any(gn <= 0.0):
            raise ValueError("chart point beyond the horizon of the chart")
        g_norm = np.linalg.norm(g, axis=-1)
        return q, g / g_norm[..., None], g_norm / gn


def c_chart(surface, theta, phi):
    """Curvature-aligned charts at the parameter points (theta, phi),
    stacked over their broadcast shape; each radius is _CHART_REACH over
    the largest of |kappa1|, |kappa2| and 1 / |origin|.  One height
    solve checks every origin, and each chart of a stacked call equals
    the call at its point alone, bit for bit."""
    k1, k2, e1, e2, n = principal_curvatures(surface, theta, phi)
    origin = surface.position(theta, phi)
    r_origin = _norm(origin)
    kmax = np.maximum(np.maximum(np.abs(k1), np.abs(k2)), 1.0 / np.maximum(r_origin, 1e-12))
    chart = CCoordinateChart(
        surface=surface,
        origin=origin,
        e1=e1,
        e2=e2,
        n=n,
        kappa1=k1,
        kappa2=k2,
        radius=_CHART_REACH / kmax,
    )
    off = np.abs(chart.height(np.zeros(np.shape(k1) + (2,))))
    if np.any(off > 1e-10 * np.maximum(1.0, r_origin)):
        raise ValueError("chart origin is off the surface")
    return chart


def _node_blocks(counts):
    """Boundaries of consecutive node blocks whose point counts sum to at
    most _BLOCK_POINTS; a node over budget is a block alone."""
    bounds, total = [0], 0
    for i, c in enumerate(counts):
        if i > bounds[-1] and total + c > _BLOCK_POINTS:
            bounds.append(i)
            total = 0
        total += c
    return bounds + [len(counts)]


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
    # math.acos per latitude, not np.arccos, which can differ in the
    # last bit: the node angles seed the symbol-route charts, and the
    # degree -1 extraction moves by about 1e-9 per ulp of chart geometry
    thetas = np.array([math.acos(x) for x in xs])
    phis = 2.0 * np.pi * np.arange(2 * n) / (2 * n)
    wphi = 2.0 * np.pi / (2 * n)
    jet = surface.jet(thetas[:, None], phis[None, :])
    wts = (ws * wphi)[:, None] * jet["area"] / np.sin(thetas)[:, None]
    prms = np.stack(np.broadcast_arrays(thetas[:, None], phis[None, :]), axis=-1)
    return SurfaceQuadrature(
        points=jet["x"].reshape(-1, 3),
        weights=wts.ravel(),
        normals=jet["normal"].reshape(-1, 3),
        params=prms.reshape(-1, 2),
    )
