"""Command line driver.

Subcommands cover the full pipeline: essential spectrum, exact sphere
eigenvalues, operator assembly, spectra, cluster counting, power-law
fits, symbol-route coefficients, and a fast invariant verification
suite.  Configuration comes from an optional JSON file plus
``--section.key value`` overrides; all outputs are deterministic.
"""

import argparse
import json
import os
import sys
from dataclasses import astuple

import numpy as np

from . import io as npio
from .asymptotics import AsymptoticReport, coefficient_integral
from .elasticity import (
    LameParams,
    essential_spectrum,
    np_principal_symbol,
    single_layer_symbol,
    sphere_exact_eigenvalues,
    symmetrizer_symbols,
)
from .extraction import curvature_matrices, fourier_multiplier, np_symbol_field
from .spectral import (
    assemble_operators,
    cluster_and_count,
    fit_power_law,
    prune_counting_samples,
    symmetrize,
)
from .surfaces import make_surface, surface_quadrature
from .symbols import TwoTermSymbol, compose

DEFAULT_CONFIG = {
    "surface": {"kind": "sphere", "radius": 1.0, "a": 1.0, "b": 1.0, "c": 1.0,
                "harmonics": []},
    "material": {"lambda": 1.0, "mu": 1.0},
    "mesh": {"n": 12},
    "extract": {"angles": 64},
    "windows": {"guard": 0.05, "n_tau": 24},
    "out": {"dir": "."},
}


def _coerce(text):
    try:
        return json.loads(text)
    except (ValueError, TypeError):
        return text


def load_config(path=None, overrides=()):
    """Defaults, optionally a JSON file, then dotted-key overrides.

    Every key, from the file or an override, must name a section and
    key of DEFAULT_CONFIG; any other key exits with its name, as does a
    value of a numeric key that is not an integer where the default is
    one (int() would run 4.9 as 4), or else not a number (float() would
    run true as 1, and fail on text without naming the key).
    """
    cfg = {section: dict(values) for section, values in DEFAULT_CONFIG.items()}
    pairs = []
    if path:
        try:
            with open(path) as f:
                sections = json.load(f)
        except OSError as exc:
            raise SystemExit("cannot read config file %s: %s" % (path, exc.strerror))
        except ValueError as exc:
            raise SystemExit("config file %s is not JSON: %s" % (path, exc))
        if not isinstance(sections, dict):
            raise SystemExit("config file %s is not a JSON object" % path)
        for section, values in sections.items():
            if not isinstance(values, dict):
                raise SystemExit("config section %r is not an object" % section)
            pairs.extend(("%s.%s" % (section, k), v) for k, v in values.items())
    pairs.extend((key, _coerce(value)) for key, value in overrides)
    for key, value in pairs:
        section, _, name = key.partition(".")
        if name not in cfg.get(section, {}):
            raise SystemExit("unknown config key %r" % key)
        cfg[section][name] = value
    for section, values in cfg.items():
        for name, value in values.items():
            kind = type(DEFAULT_CONFIG[section][name])
            if kind in (int, float) and type(value) not in (int, kind):
                what = "an integer" if kind is int else "a number"
                raise SystemExit("config key '%s.%s' is not %s: %r" % (section, name, what, value))
    return cfg


def _split_overrides(rest):
    if len(rest) % 2:
        raise SystemExit("override arguments must come in --key value pairs")
    pairs = []
    for i in range(0, len(rest), 2):
        key = rest[i]
        if not key.startswith("--"):
            raise SystemExit("unexpected argument %r" % key)
        pairs.append((key[2:], rest[i + 1]))
    return pairs


def _configured(keys, build, *args, **kwargs):
    """build(*args, **kwargs) from the values of keys, stopping with the
    keys and the library's reason when build rejects them."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise SystemExit("invalid %s: %s" % (keys, exc))


def _material(cfg):
    m = cfg["material"]
    return _configured("material.lambda, material.mu", LameParams, lam=m["lambda"], mu=m["mu"])


_SURFACE_KEYS = {"sphere": ["radius"], "ellipsoid": ["a", "b", "c"], "radial_graph": ["harmonics"]}


def _surface(cfg):
    s = cfg["surface"]
    for kind, keys in _SURFACE_KEYS.items():
        if s["kind"] == kind:
            where = ", ".join("surface." + k for k in keys)
            return _configured(where, make_surface, kind, **{k: s[k] for k in keys})
    raise SystemExit("unknown surface kind %r" % s["kind"])


def _quadrature(cfg, surface):
    # the rule is the first evaluation of the surface, so a radial graph
    # that is not star shaped at a node is rejected here too
    return _configured("mesh.n or surface", surface_quadrature, surface, cfg["mesh"]["n"])


def _outdir(cfg):
    d = cfg["out"]["dir"]
    os.makedirs(d, exist_ok=True)
    return d


def cmd_essential(cfg):
    poly = essential_spectrum(_material(cfg))
    print(json.dumps({"roots": [round(r, 6) for r in poly.roots]}))
    return 0


def cmd_sphere_exact(cfg, k_max):
    lam0, lam_m, lam_p = _configured("--kmax", sphere_exact_eigenvalues, _material(cfg), k_max)
    print("k,lam_zero,lam_minus,lam_plus")
    for i in range(k_max):
        print(
            "%d,%.17g,%.17g,%.17g" % (i + 1, lam0[i], lam_m[i], lam_p[i])
        )
    return 0


def cmd_assemble(cfg):
    surface = _surface(cfg)
    params = _material(cfg)
    quad = _quadrature(cfg, surface)
    k_mat, s_mat = assemble_operators(surface, params, quad)
    d = _outdir(cfg)
    kp = os.path.join(d, "np_matrix.npmat")
    sp = os.path.join(d, "single_layer.npmat")
    npio._fork_pair(lambda: npio.write_npmat(kp, k_mat), lambda: npio.write_npmat(sp, s_mat))
    print(json.dumps({"nodes": quad.size, "files": [kp, sp]}, sort_keys=True))
    return 0


def _read_input(read, path, stage):
    """read(path), stopping with a message that names the file and the
    stage that writes it when the file cannot be read or is malformed."""
    try:
        return read(path)
    except OSError as exc:
        raise SystemExit("cannot read %s: %s; run %s first" % (path, exc.strerror, stage))
    except ValueError as exc:
        raise SystemExit("%s is malformed: %s; re-run %s" % (path, exc, stage))


def _read_operator(path, dim):
    """An assembled dim x dim operator matrix from an NPMAT file."""
    mat = _read_input(npio.read_npmat, path, "assemble")
    if mat.shape != (dim, dim):
        raise SystemExit(
            "%s is %dx%d; the configured mesh needs %dx%d"
            % ((path,) + mat.shape + (dim, dim))
        )
    return mat


def cmd_spectrum(cfg, matrix=None):
    """Symmetrized spectrum of the K and S that assemble wrote: K from
    matrix (default <out.dir>/np_matrix.npmat), S from
    single_layer.npmat in the same directory."""
    d = _outdir(cfg)
    k_path = matrix or os.path.join(d, "np_matrix.npmat")
    s_path = os.path.join(os.path.dirname(k_path), "single_layer.npmat")
    quad = _quadrature(cfg, _surface(cfg))
    dim = 3 * quad.size
    k_mat, s_mat = npio._fork_pair(
        lambda: _read_operator(k_path, dim), lambda: _read_operator(s_path, dim)
    )
    sym, info = symmetrize(k_mat, s_mat, weights=quad.weights)
    vals = np.linalg.eigvalsh(sym)
    path = os.path.join(d, "eigenvalues.csv")
    npio.write_eigenvalues_csv(path, vals)
    print(json.dumps(dict(info, count=int(vals.size), file=path), sort_keys=True))
    return 0


def cmd_count(cfg, eigenvalues_path=None):
    d = _outdir(cfg)
    if eigenvalues_path is None:
        eigenvalues_path = os.path.join(d, "eigenvalues.csv")
    vals = _read_input(npio.read_eigenvalues_csv, eigenvalues_path, "spectrum")
    if vals.size == 0:
        raise SystemExit("%s holds no eigenvalues" % eigenvalues_path)
    poly = essential_spectrum(_material(cfg))
    win = cfg["windows"]
    records = cluster_and_count(vals, poly, n_tau=win["n_tau"], guard=win["guard"])
    path = os.path.join(d, "counting.csv")
    npio.write_counting_csv(path, records)
    print(json.dumps({"roots": len(records), "file": path}, sort_keys=True))
    return 0


def cmd_fit(cfg, counting_path=None, prune=True):
    d = _outdir(cfg)
    if counting_path is None:
        counting_path = os.path.join(d, "counting.csv")
    records = _read_input(npio.read_counting_csv, counting_path, "count")
    if not records:
        raise SystemExit("%s holds no counting rows" % counting_path)
    reports, skipped = [], []
    for rec in records:
        for side, key in (("plus", "n_plus"), ("minus", "n_minus")):
            tau, counts = rec["tau"], rec[key]
            if prune:
                tau, counts = prune_counting_samples(tau, counts)
            try:
                fit = fit_power_law(tau, counts)
            except ValueError as exc:
                skipped.append({"root": rec["root"], "side": side, "reason": str(exc)})
                continue
            reports.append(
                AsymptoticReport(
                    root=rec["root"],
                    side=side,
                    c=fit.c,
                    d=fit.h,
                    route="counting",
                    err_estimate=fit.residual,
                )
            )
    path = os.path.join(d, "fit.json")
    npio.write_fit_json(path, reports, skipped)
    print(json.dumps({"reports": len(reports), "file": path}, sort_keys=True))
    return 0


def cmd_coeff(cfg):
    surface = _surface(cfg)
    params = _material(cfg)
    quad = _quadrature(cfg, surface)
    field = np_symbol_field(surface, params, quad, angles=cfg["extract"]["angles"])
    cp, cm, info = coefficient_integral(
        params, field.charts.kappa1, field.charts.kappa2, quad.weights
    )
    drift = info["angle_drift"]
    reports = [
        AsymptoticReport(
            root=float(root), side=side, c=float(c[idx]), d=2.0,
            route="symbol", err_estimate=float(drift[idx]),
        )
        for idx, root in enumerate(essential_spectrum(params).roots)
        for side, c in (("plus", cp), ("minus", cm))
    ]
    d = _outdir(cfg)
    path = os.path.join(d, "coeff.json")
    npio.write_report_json(path, reports)
    summary = dict(
        field.diagnostics, reports=len(reports), file=path, angle_drift=float(drift.max())
    )
    print(json.dumps(summary, sort_keys=True))
    return 0


def _verify_checks(cfg):
    params = _material(cfg)
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
            why = "" if ok else "returned False"
        except Exception as exc:
            ok, why = False, "%s: %s" % (type(exc).__name__, exc)
        checks.append((name, ok, why))

    # literal jets at x = 0, xi = (1, 1) of a0 = sin(x1) xi1/|xi| and
    # b0 = xi2/|xi|: d_x a0 = (1, 0)/sqrt2, d_xi b0 = (-1, 1)/(2 sqrt2)
    s, zero, zder = np.sqrt(0.5), np.zeros((1, 1)), np.zeros((2, 1, 1))
    a = TwoTermSymbol(zero, zero, np.array([[[s]], [[0.0]]]), zder)
    b = TwoTermSymbol(np.full((1, 1), s), zero, zder, np.array([[[-s]], [[s]]]) / 2)
    eye = TwoTermSymbol(np.eye(1), zero, zder, zder)
    check("compose_micro_value", lambda: abs(compose(b, a).a_m1[0, 0] - 0.25j) < 1e-6)
    check(
        "identity_neutral",
        lambda: all(
            np.abs(got - want).max() < 1e-14
            for c in (compose(eye, b), compose(b, eye))
            for got, want in zip(astuple(c), astuple(b))
        ),
    )
    check(
        "essential_symmetric",
        lambda: abs(
            essential_spectrum(params).roots[0]
            + essential_spectrum(params).roots[2]
        ) < 1e-14 and essential_spectrum(params).roots[1] == 0.0,
    )

    def sphere_modes():
        lam0, lam_m, lam_p = sphere_exact_eigenvalues(params, 2)
        return abs(lam0[0] - 0.5) < 1e-14 and abs(lam0[1] - 0.3) < 1e-14

    check("sphere_first_modes", sphere_modes)

    def principal_eigs():
        xi = np.array([0.3, -1.1])
        vals = np.sort(np.linalg.eigvalsh(np_principal_symbol(params, xi)))
        k = params.kk
        return np.allclose(vals, [-k, 0.0, k], atol=1e-12)

    check("principal_symbol_eigenvalues", principal_eigs)
    check(
        "symmetrizer_identities",
        lambda: symmetrizer_symbols(params, np.array([0.7, 0.4])) is not None,
    )
    check(
        "single_layer_negative",
        lambda: np.linalg.eigvalsh(
            single_layer_symbol(params, np.array([1.0, 0.0]))
        ).max() < 0.0,
    )
    check(
        "fourier_multiplier_values",
        lambda: abs(fourier_multiplier(0, 1) - 2 * np.pi) < 1e-12
        and abs(fourier_multiplier(1, 2) - 2j * np.pi) < 1e-12
        and abs(fourier_multiplier(2, 1) + 2 * np.pi) < 1e-12,
    )

    def ball_cluster_tops():
        # kappa = (-1, -1) is the unit ball, whose exact spectrum fixes the tops
        m = -curvature_matrices(params, np.array([0.6, -0.8])).sum(axis=0)
        tops = np.linalg.eigvals(m).real.max(axis=-1)
        return np.allclose(tops, [params.kk, 0.75, params.kk], atol=1e-12)

    check("ball_cluster_tops", ball_cluster_tops)
    return checks


def cmd_verify(cfg):
    checks = _verify_checks(cfg)
    failed = 0
    for name, ok, why in checks:
        print("ok %s" % name if ok else "FAIL %s: %s" % (name, why))
        failed += 0 if ok else 1
    print("%d/%d checks passed" % (len(checks) - failed, len(checks)))
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="npspec",
        description="Spectral asymptotics of the elastic double layer operator",
    )
    parser.add_argument("--config", help="JSON configuration file")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("essential")
    p = sub.add_parser("sphere-exact")
    p.add_argument("--kmax", type=int, default=10)
    sub.add_parser("assemble")
    p = sub.add_parser("spectrum")
    p.add_argument(
        "--matrix", help="K matrix file (default <out.dir>/np_matrix.npmat); "
        "S is read from single_layer.npmat beside it"
    )
    p = sub.add_parser("count")
    p.add_argument("--eigenvalues", help="eigenvalue CSV path")
    p = sub.add_parser("fit")
    p.add_argument("--counting", help="counting CSV path")
    p.add_argument("--no-prune", action="store_true")
    sub.add_parser("coeff")
    sub.add_parser("verify")
    args, rest = parser.parse_known_args(argv)
    cfg = load_config(args.config, _split_overrides(rest))
    if args.command == "essential":
        return cmd_essential(cfg)
    if args.command == "sphere-exact":
        return cmd_sphere_exact(cfg, args.kmax)
    if args.command == "assemble":
        return cmd_assemble(cfg)
    if args.command == "spectrum":
        return cmd_spectrum(cfg, args.matrix)
    if args.command == "count":
        return cmd_count(cfg, args.eigenvalues)
    if args.command == "fit":
        return cmd_fit(cfg, args.counting, prune=not args.no_prune)
    if args.command == "coeff":
        return cmd_coeff(cfg)
    if args.command == "verify":
        return cmd_verify(cfg)
    raise SystemExit("unhandled command")


if __name__ == "__main__":
    sys.exit(main())
