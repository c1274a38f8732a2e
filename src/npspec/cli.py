"""Command line driver.

Subcommands cover the full pipeline: essential spectrum, exact sphere
eigenvalues, operator assembly, spectra, cluster counting, power-law
fits, symbol-route coefficients, and a fast invariant verification
suite.  Configuration comes from an optional JSON file plus one
``--section.key value`` option per config key on every stage (``npspec
<stage> --help`` lists them); all outputs are deterministic.
Each command imports the layers it runs, so a stage's process loads
only those.
"""

import argparse
import json
import os
import sys
from dataclasses import astuple

import numpy as np

DEFAULT_CONFIG = {
    "surface": {"kind": "sphere", "radius": 1.0, "a": 1.0, "b": 1.0, "c": 1.0,
                "harmonics": []},
    "material": {"lambda": 1.0, "mu": 1.0},
    "mesh": {"n": 12},
    "extract": {"angles": 64},
    "out": {"dir": "."},
}


# a config value's allowed types and their name, by its default's type
_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          str: ((str,), "a string"), list: ((list,), "a list")}


def _coerce(key, text):
    """An override's value: its text for a string-valued key, else the
    JSON that the text spells, or the text if it spells none."""
    section, _, name = key.partition(".")
    if isinstance(DEFAULT_CONFIG.get(section, {}).get(name), str):
        return text
    try:
        return json.loads(text)
    except (ValueError, TypeError):
        return text


def load_config(path=None, overrides=()):
    """Defaults, optionally a JSON file, then dotted-key overrides.

    Every key, from the file or an override, must name a section and
    key of DEFAULT_CONFIG; any other key exits with its name, as does a
    value, where it is set, not of its default's type (_KINDS): not an
    integer where the default is one (int() would run 4.9 as 4), else
    not a number (float() would run true as 1, and fail on text without
    naming the key), or not a string or a list where the default is one.
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
    pairs.extend((key, _coerce(key, value)) for key, value in overrides)
    for key, value in pairs:
        section, _, name = key.partition(".")
        if name not in cfg.get(section, {}):
            raise SystemExit("unknown config key %r" % key)
        types, what = _KINDS[type(DEFAULT_CONFIG[section][name])]
        if type(value) not in types:
            raise SystemExit("config key %r is not %s: %r" % (key, what, value))
        cfg[section][name] = value
    return cfg


def _configured(keys, build, *args, **kwargs):
    """build(*args, **kwargs) from the values of keys, stopping with the
    keys and the library's reason when build rejects them."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise SystemExit("invalid %s: %s" % (keys, exc))


def _material(cfg):
    from .elasticity import LameParams
    m = cfg["material"]
    return _configured("material.lambda, material.mu", LameParams, lam=m["lambda"], mu=m["mu"])


def _surface(cfg):
    """The configured surface; a key its kind does not read must keep its default."""
    from .surfaces import SURFACE_PARAMS, make_surface
    s = cfg["surface"]
    keys = SURFACE_PARAMS.get(s["kind"])
    if keys is None:
        raise SystemExit("unknown surface kind %r" % s["kind"])
    for k, v in s.items():
        if k != "kind" and k not in keys and v != DEFAULT_CONFIG["surface"][k]:
            raise SystemExit("config key 'surface.%s' is not read by kind %r" % (k, s["kind"]))
    where = ", ".join("surface." + k for k in keys)
    return _configured(where, make_surface, s["kind"], **{k: s[k] for k in keys})


def _quadrature(cfg, surface):
    from .surfaces import surface_quadrature
    return _configured("mesh.n or surface", surface_quadrature, surface, cfg["mesh"]["n"])


def _outdir(cfg):
    """The output directory, made if missing; every stage that writes
    calls this first, so a bad out.dir stops it before any work."""
    d = cfg["out"]["dir"]
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:
        raise SystemExit("cannot create output directory %s: %s" % (d, exc.strerror))
    return d


def cmd_essential(cfg):
    from .elasticity import essential_spectrum
    poly = essential_spectrum(_material(cfg))
    print(json.dumps({"roots": [round(r, 6) for r in poly.roots]}))
    return 0


def cmd_sphere_exact(cfg, k_max):
    from .elasticity import sphere_exact_eigenvalues
    lam0, lam_m, lam_p = _configured("--kmax", sphere_exact_eigenvalues, _material(cfg), k_max)
    print("k,lam_zero,lam_minus,lam_plus")
    for i in range(k_max):
        print(
            "%d,%.17g,%.17g,%.17g" % (i + 1, lam0[i], lam_m[i], lam_p[i])
        )
    return 0


def cmd_assemble(cfg):
    from . import io as npio
    from .spectral import assemble_operators, target_nodes
    d = _outdir(cfg)
    surface = _surface(cfg)
    params = _material(cfg)
    quad = _quadrature(cfg, surface)
    k_mat, s_mat = _configured("mesh.n or surface", assemble_operators, surface, params, quad)
    kp = os.path.join(d, "np_matrix.npmat")
    sp = os.path.join(d, "single_layer.npmat")
    npio._fork_pair(lambda: _write_output(npio.write_npmat, kp, k_mat),
                    lambda: _write_output(npio.write_npmat, sp, s_mat))
    rows = len(target_nodes(surface, quad))
    print(json.dumps(dict(nodes=quad.size, rows_assembled=rows, files=[kp, sp]), sort_keys=True))
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


def _write_output(write, path, payload):
    """write(path, payload), stopping with a message that names the file
    when it cannot be written."""
    try:
        write(path, payload)
    except OSError as exc:
        raise SystemExit("cannot write %s: %s" % (path, exc.strerror))


def _read_operator(path, dim, nodes):
    """(blocks, defect) of an assembled dim x dim operator's NPMAT file
    from spectral.meridian_blocks at the nodes whose rows were assembled."""
    from . import io as npio
    from .spectral import meridian_blocks
    mat = _read_input(npio.read_npmat, path, "assemble")
    if mat.shape != (dim, dim):
        raise SystemExit(
            "%s is %dx%d; the configured mesh needs %dx%d"
            % ((path,) + mat.shape + (dim, dim))
        )
    return _read_input(lambda _: meridian_blocks(mat, nodes), path, "assemble")


def cmd_spectrum(cfg, matrix=None):
    """Symmetrized spectrum of the K and S that assemble wrote: K from
    matrix (default <out.dir>/np_matrix.npmat), S from
    single_layer.npmat in the same directory; one Fourier block at a
    time on an axisymmetric surface, where both must be equivariant."""
    from . import io as npio
    from .spectral import symmetrize, target_nodes
    d = _outdir(cfg)
    k_path = matrix or os.path.join(d, "np_matrix.npmat")
    s_path = os.path.join(os.path.dirname(k_path), "single_layer.npmat")
    surface = _surface(cfg)
    quad = _quadrature(cfg, surface)
    dim = 3 * quad.size
    nodes = target_nodes(surface, quad)
    k_mat, k_defect = _read_operator(k_path, dim, nodes)
    s_mat, s_defect = _read_operator(s_path, dim, nodes)
    sym, info = _configured("mesh.n", symmetrize, k_mat, s_mat, weights=quad.weights[nodes])
    vals = np.sort(np.linalg.eigvalsh(sym), axis=None)
    path = os.path.join(d, "eigenvalues.csv")
    _write_output(npio.write_eigenvalues_csv, path, vals)
    defect = None if k_defect is None else max(k_defect, s_defect)
    info.update(count=int(vals.size), file=path, circulant_defect=defect, fourier_blocks=len(sym))
    print(json.dumps(info, sort_keys=True))
    return 0


def cmd_count(cfg):
    from . import io as npio
    from .elasticity import essential_spectrum
    from .spectral import cluster_and_count
    d = _outdir(cfg)
    source = os.path.join(d, "eigenvalues.csv")
    poly = essential_spectrum(_material(cfg))
    vals = _read_input(npio.read_eigenvalues_csv, source, "spectrum")
    if vals.size == 0:
        raise SystemExit("%s holds no eigenvalues" % source)
    records = cluster_and_count(vals, poly)
    path = os.path.join(d, "counting.csv")
    _write_output(npio.write_counting_csv, path, records)
    print(json.dumps({"roots": len(records), "file": path}, sort_keys=True))
    return 0


def _report(root, side, c, d, route, err_estimate):
    """The record of n_side(tau) ~ C tau^(-d) at root, by route "symbol"
    (coefficient integral) or "counting" (power-law fit); err_estimate is
    the route's internal convergence measure, not a rigorous bound."""
    return dict(root=root, side=side, C=c, d=d, route=route, err_estimate=err_estimate)


def cmd_fit(cfg):
    from . import io as npio
    from .spectral import fit_power_law, prune_counting_samples
    d = _outdir(cfg)
    source = os.path.join(d, "counting.csv")
    records = _read_input(npio.read_counting_csv, source, "count")
    if not records:
        raise SystemExit("%s holds no counting rows" % source)
    reports, skipped = [], []
    for rec in records:
        for side, key in (("plus", "n_plus"), ("minus", "n_minus")):
            try:
                fit = fit_power_law(*prune_counting_samples(rec["tau"], rec[key]))
            except ValueError as exc:
                skipped.append({"root": rec["root"], "side": side, "reason": str(exc)})
                continue
            reports.append(_report(rec["root"], side, fit.c, fit.h, "counting", fit.residual))
    path = os.path.join(d, "fit.json")
    _write_output(npio.write_json, path, {"reports": reports, "skipped": skipped})
    print(json.dumps({"reports": len(reports), "file": path}, sort_keys=True))
    return 0


def _curvature_record(roots, k1, k2, weights, cp, cm):
    """willmore (W, the integral of H^2), gauss_bonnet_err (the integral
    of K, less 4 pi, over 4 pi) and convex (K >= 0 at every node); on a
    convex surface also convex_law_err, the largest difference of C+-
    from the convex law C+(0) = (9/16) f, C+(+-k) = k^2 f, C- = 0, with
    f = 3 W / (8 pi) - 1/2, over the largest C+."""
    willmore = float(weights @ ((k1 + k2) / 2.0) ** 2)
    gauss = k1 * k2
    record = dict(willmore=willmore, convex=bool((gauss >= 0.0).all()),
                  gauss_bonnet_err=float((weights @ gauss - 4.0 * np.pi) / (4.0 * np.pi)))
    if record["convex"]:
        roots = np.array(roots)
        law = (3.0 * willmore / (8.0 * np.pi) - 0.5) * np.where(roots == 0.0, 9.0 / 16.0, roots**2)
        err = max(np.abs(cp - law).max(), np.abs(cm).max())
        record["convex_law_err"] = float(err / np.abs(cp).max())
    return record


def cmd_coeff(cfg):
    from . import io as npio
    from .asymptotics import coefficient_integral
    from .elasticity import essential_spectrum
    from .extraction import _check_angles, np_symbol_field
    d = _outdir(cfg)
    angles = cfg["extract"]["angles"]
    _configured("extract.angles", _check_angles, angles)
    surface = _surface(cfg)
    params = _material(cfg)
    quad = _quadrature(cfg, surface)
    field = _configured("mesh.n or surface", np_symbol_field, surface, params, quad, angles=angles)
    k1, k2 = field.charts.kappa1, field.charts.kappa2
    cp, cm, info = _configured("mesh.n or surface", coefficient_integral, params,
                               k1, k2, quad.weights)
    drift = info["angle_drift"]
    roots = essential_spectrum(params).roots
    reports = [
        _report(float(root), side, float(c[idx]), 2.0, "symbol", float(drift[idx]))
        for idx, root in enumerate(roots)
        for side, c in (("plus", cp), ("minus", cm))
    ]
    path = os.path.join(d, "coeff.json")
    _write_output(npio.write_json, path, {"reports": reports})
    summary = dict(
        field.diagnostics, reports=len(reports), file=path, angle_drift=float(drift.max()),
        **_curvature_record(roots, k1, k2, quad.weights, cp, cm)
    )
    print(json.dumps(summary, sort_keys=True))
    return 0


def _verify_checks(cfg):
    """(name, check) pairs; a check returns True when its invariant holds."""
    from .elasticity import (essential_spectrum, np_principal_symbol, single_layer_symbol,
                             sphere_exact_eigenvalues, symmetrizer_symbols)
    from .extraction import curvature_matrices, fourier_multiplier
    from .symbols import TwoTermSymbol, compose
    params = _material(cfg)
    # literal jets at x = 0, xi = (1, 1) of a0 = sin(x1) xi1/|xi| and
    # b0 = xi2/|xi|: d_x a0 = (1, 0)/sqrt2, d_xi b0 = (-1, 1)/(2 sqrt2)
    s, zero, zder = np.sqrt(0.5), np.zeros((1, 1)), np.zeros((2, 1, 1))
    a = TwoTermSymbol(zero, zero, np.array([[[s]], [[0.0]]]), zder)
    b = TwoTermSymbol(np.full((1, 1), s), zero, zder, np.array([[[-s]], [[s]]]) / 2)
    eye = TwoTermSymbol(np.eye(1), zero, zder, zder)

    def essential_symmetric():
        roots = essential_spectrum(params).roots
        return abs(roots[0] + roots[2]) < 1e-14 and roots[1] == 0.0

    def sphere_modes():
        lam0 = sphere_exact_eigenvalues(params, 2)[0]
        return abs(lam0[0] - 0.5) < 1e-14 and abs(lam0[1] - 0.3) < 1e-14

    def principal_eigs():
        xi = np.array([0.3, -1.1])
        vals = np.sort(np.linalg.eigvalsh(np_principal_symbol(params, xi)))
        k = params.kk
        return np.allclose(vals, [-k, 0.0, k], atol=1e-12)

    def ball_cluster_tops():
        # kappa = (-1, -1) is the unit ball, whose exact spectrum fixes the tops
        m = -curvature_matrices(params, np.array([0.6, -0.8])).sum(axis=0)
        tops = np.linalg.eigvals(m).real.max(axis=-1)
        return np.allclose(tops, [params.kk, 0.75, params.kk], atol=1e-12)

    return [
        ("compose_micro_value", lambda: abs(compose(b, a).a_m1[0, 0] - 0.25j) < 1e-6),
        ("identity_neutral", lambda: all(
            np.abs(got - want).max() < 1e-14
            for c in (compose(eye, b), compose(b, eye))
            for got, want in zip(astuple(c), astuple(b)))),
        ("essential_symmetric", essential_symmetric),
        ("sphere_first_modes", sphere_modes),
        ("principal_symbol_eigenvalues", principal_eigs),
        ("symmetrizer_identities",
         lambda: symmetrizer_symbols(params, np.array([0.7, 0.4])) is not None),
        ("single_layer_negative", lambda: np.linalg.eigvalsh(
            single_layer_symbol(params, np.array([1.0, 0.0]))).max() < 0.0),
        ("fourier_multiplier_values",
         lambda: abs(fourier_multiplier(0, 1) - 2 * np.pi) < 1e-12
         and abs(fourier_multiplier(1, 2) - 2j * np.pi) < 1e-12
         and abs(fourier_multiplier(2, 1) + 2 * np.pi) < 1e-12),
        ("ball_cluster_tops", ball_cluster_tops),
    ]


def cmd_verify(cfg):
    checks = _verify_checks(cfg)
    failed = 0
    for name, check in checks:
        try:
            why = "" if check() else "returned False"
        except Exception as exc:
            why = "%s: %s" % (type(exc).__name__, exc)
        print("FAIL %s: %s" % (name, why) if why else "ok %s" % name)
        failed += bool(why)
    print("%d/%d checks passed" % (len(checks) - failed, len(checks)))
    return 1 if failed else 0


def _parser():
    """npspec's parser, one --section.key option per config key on each stage,
    unset unless given; main drops it before the stage runs."""
    overrides = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    for section, values in DEFAULT_CONFIG.items():
        for name, value in values.items():
            overrides.add_argument("--%s.%s" % (section, name), default=argparse.SUPPRESS,
                                   metavar=name.upper(), help="default %s" % json.dumps(value))
    parser = argparse.ArgumentParser(prog="npspec", allow_abbrev=False, description=(
        "Spectral asymptotics of the elastic double layer operator"))
    parser.add_argument("--config", help="JSON configuration file")
    sub = parser.add_subparsers(dest="command", required=True)
    stage = lambda name: sub.add_parser(name, parents=[overrides], allow_abbrev=False)
    # each runner is looked up at call time, so a rebound cmd_* is the one run
    stage("essential").set_defaults(run=lambda cfg, a: cmd_essential(cfg))
    p = stage("sphere-exact")
    p.add_argument("--kmax", type=int, default=10)
    p.set_defaults(run=lambda cfg, a: cmd_sphere_exact(cfg, a.kmax))
    stage("assemble").set_defaults(run=lambda cfg, a: cmd_assemble(cfg))
    p = stage("spectrum")
    p.add_argument("--matrix", help="K matrix file (default <out.dir>/np_matrix.npmat); "
                   "S is read from single_layer.npmat beside it")
    p.set_defaults(run=lambda cfg, a: cmd_spectrum(cfg, a.matrix))
    stage("count").set_defaults(run=lambda cfg, a: cmd_count(cfg))
    stage("fit").set_defaults(run=lambda cfg, a: cmd_fit(cfg))
    stage("coeff").set_defaults(run=lambda cfg, a: cmd_coeff(cfg))
    stage("verify").set_defaults(run=lambda cfg, a: cmd_verify(cfg))
    return parser


def main(argv=None):
    # argparse takes a value such as -1e-3 for a flag; joined to its
    # --section.key flag, the token after the flag is its value
    keys = {"--%s.%s" % (s, k) for s, values in DEFAULT_CONFIG.items() for k in values}
    tokens, argv = iter(sys.argv[1:] if argv is None else argv), []
    for token in tokens:
        value = next(tokens, None) if token in keys else None
        argv.append(token if value is None else "%s=%s" % (token, value))
    args = _parser().parse_args(argv)
    given = [(key, text) for key, text in vars(args).items() if "." in key]
    return args.run(load_config(args.config, given), args)


if __name__ == "__main__":
    sys.exit(main())
