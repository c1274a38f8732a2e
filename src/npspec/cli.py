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
from .extraction import fourier_multiplier, np_symbol_field
from .spectral import (
    assemble_operators,
    cluster_and_count,
    fit_power_law,
    prune_counting_samples,
    symmetrize,
)
from .surfaces import make_surface, surface_quadrature
from .symbols import TwoTermSymbol, compose, identity_symbol

DEFAULT_CONFIG = {
    "surface": {"kind": "sphere", "radius": 1.0, "a": 1.0, "b": 1.0, "c": 1.0,
                "harmonics": []},
    "material": {"lambda": 1.0, "mu": 1.0},
    "mesh": {"n": 12},
    "extract": {"eps_ladder": None, "angles": 64},
    "windows": {"guard": 0.05, "n_tau": 24},
    "out": {"dir": "."},
}


def _merge(base, extra):
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k].update(v)
        else:
            out[k] = v
    return out


def _coerce(text):
    try:
        return json.loads(text)
    except (ValueError, TypeError):
        return text


def load_config(path=None, overrides=()):
    """Defaults, optionally a JSON file, then dotted-key overrides."""
    cfg = _merge(DEFAULT_CONFIG, {})
    if path:
        with open(path) as f:
            cfg = _merge(cfg, json.load(f))
    for key, value in overrides:
        parts = key.split(".")
        node = cfg
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = _coerce(value)
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


def _material(cfg):
    m = cfg["material"]
    return LameParams(lam=float(m["lambda"]), mu=float(m["mu"]))


def _surface(cfg):
    s = cfg["surface"]
    kind = s["kind"]
    if kind == "sphere":
        return make_surface("sphere", radius=float(s.get("radius", 1.0)))
    if kind == "ellipsoid":
        return make_surface(
            "ellipsoid", a=float(s["a"]), b=float(s["b"]), c=float(s["c"])
        )
    if kind == "radial_graph":
        return make_surface("radial_graph", harmonics=s.get("harmonics", []))
    raise SystemExit("unknown surface kind %r" % kind)


def _outdir(cfg):
    d = cfg["out"]["dir"]
    os.makedirs(d, exist_ok=True)
    return d


def cmd_essential(cfg):
    poly = essential_spectrum(_material(cfg))
    print(json.dumps({"roots": [round(r, 6) for r in poly.roots]}))
    return 0


def cmd_sphere_exact(cfg, k_max):
    lam0, lam_m, lam_p = sphere_exact_eigenvalues(_material(cfg), k_max)
    print("k,lam_zero,lam_minus,lam_plus")
    for i in range(k_max):
        print(
            "%d,%.17g,%.17g,%.17g" % (i + 1, lam0[i], lam_m[i], lam_p[i])
        )
    return 0


def cmd_assemble(cfg):
    surface = _surface(cfg)
    params = _material(cfg)
    quad = surface_quadrature(surface, int(cfg["mesh"]["n"]))
    k_mat, s_mat = assemble_operators(surface, params, quad)
    d = _outdir(cfg)
    kp = os.path.join(d, "np_matrix.npmat")
    sp = os.path.join(d, "single_layer.npmat")
    npio.write_npmat(kp, k_mat)
    npio.write_npmat(sp, s_mat)
    print(json.dumps({"nodes": quad.size, "files": [kp, sp]}, sort_keys=True))
    return 0


def _read_operator(path, dim):
    """An assembled dim x dim operator matrix from an NPMAT file."""
    try:
        mat = npio.read_npmat(path)
    except OSError as exc:
        raise SystemExit("cannot read %s: %s; run assemble first" % (path, exc.strerror))
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
    quad = surface_quadrature(_surface(cfg), int(cfg["mesh"]["n"]))
    k_mat = _read_operator(k_path, 3 * quad.size)
    s_mat = _read_operator(s_path, 3 * quad.size)
    sym, info = symmetrize(k_mat, s_mat, weights=quad.weights)
    vals = np.sort(np.linalg.eigvalsh(sym))
    path = os.path.join(d, "eigenvalues.csv")
    npio.write_eigenvalues_csv(path, vals)
    print(json.dumps(dict(info, count=int(vals.size), file=path), sort_keys=True))
    return 0


def cmd_count(cfg, eigenvalues_path=None):
    d = _outdir(cfg)
    if eigenvalues_path is None:
        eigenvalues_path = os.path.join(d, "eigenvalues.csv")
    vals = npio.read_eigenvalues_csv(eigenvalues_path)
    poly = essential_spectrum(_material(cfg))
    win = cfg["windows"]
    records = cluster_and_count(
        vals, poly, n_tau=int(win.get("n_tau", 24)),
        guard=float(win.get("guard", 0.05)),
    )
    path = os.path.join(d, "counting.csv")
    npio.write_counting_csv(path, records)
    print(json.dumps({"roots": len(records), "file": path}, sort_keys=True))
    return 0


def cmd_fit(cfg, counting_path=None, prune=True):
    d = _outdir(cfg)
    if counting_path is None:
        counting_path = os.path.join(d, "counting.csv")
    records = npio.read_counting_csv(counting_path)
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
    quad = surface_quadrature(surface, int(cfg["mesh"]["n"]))
    ex = cfg["extract"]
    ladder = ex.get("eps_ladder")
    field = np_symbol_field(
        surface, params, quad,
        angles=int(ex.get("angles", 64)),
        eps_ladder=None if ladder in (None, []) else np.asarray(ladder, float),
    )
    reports = []
    drift = 0.0
    for idx, root in enumerate(field.roots.roots):
        cp, cm, info = coefficient_integral(field, idx)
        drift = max(drift, float(info["angle_drift"]))
        for side, c in (("plus", cp), ("minus", cm)):
            reports.append(
                AsymptoticReport(
                    root=float(root), side=side, c=float(c), d=2.0,
                    route="symbol", err_estimate=float(info["angle_drift"]),
                )
            )
    d = _outdir(cfg)
    path = os.path.join(d, "coeff.json")
    npio.write_report_json(path, reports)
    summary = dict(
        field.diagnostics, reports=len(reports), file=path, angle_drift=drift
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

    def composition_value():
        a = TwoTermSymbol(
            dim=1,
            a0=lambda x, xi: np.array([[np.sin(x[0]) * xi[0] / np.hypot(*xi)]]),
            a_m1=lambda x, xi: np.zeros((1, 1)),
        )
        b = TwoTermSymbol(
            dim=1,
            a0=lambda x, xi: np.array([[xi[1] / np.hypot(*xi)]]),
            a_m1=lambda x, xi: np.zeros((1, 1)),
        )
        val = compose(b, a).a_m1(np.zeros(2), np.array([1.0, 1.0]))[0, 0]
        return abs(val - 0.25j) < 1e-6

    check("compose_micro_value", composition_value)
    check(
        "identity_neutral",
        lambda: abs(
            compose(identity_symbol(2), identity_symbol(2)).a_m1(
                np.zeros(2), np.array([1.0, 0.0])
            )
        ).max() < 1e-14,
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
