"""Correctness checks on the files a pipeline wrote.

Each check function takes (outdir, nodes, lam, mu) and returns
(checks, accuracy): checks is a list of (name, ok, detail) and accuracy
a dict of the discretization-level figures read from the outputs.  The
readers here are independent of ``npspec.io`` so that a broken writer
cannot pass its own reader.
"""

import json
import math
import os

import numpy as np

EIG_MARGIN = 0.05      # eigenvalues must lie in [-1/2 - m, 1/2 + m]
TOP_EIG_REL = 0.05     # top eigenvalue within 5% of 1/2
ROOT_REL = 1e-9        # written roots against the material's k
SIDE_SYM_REL = 1e-6    # C(-k) = C(+k) for each side


def essential_roots(lam, mu):
    k = mu / (2.0 * (2.0 * mu + lam))
    return [-k, 0.0, k]


def _close(a, b, rel, floor=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _roots_match(found, expected):
    return len(found) == len(expected) and all(
        _close(a, b, ROOT_REL) for a, b in zip(sorted(found), expected))


def read_npmat(path):
    with open(path) as f:
        header = f.readline().split()
        if header[:2] != ["NPMAT", "v1"] or header[4:] != ["real"]:
            raise ValueError("unexpected NPMAT header %r" % header)
        rows, cols = int(header[2]), int(header[3])
        vals = np.fromstring(f.read(), sep=" ")
    if vals.size != rows * cols:
        raise ValueError("NPMAT holds %d entries, header says %d" % (vals.size, rows * cols))
    return vals.reshape(rows, cols)


def read_column(path, header, column):
    with open(path) as f:
        if f.readline().strip() != header:
            raise ValueError("%s: header is not %r" % (path, header))
        return [float(line.split(",")[column]) for line in f if line.strip()]


def rigid_residual(k_mat):
    """max |K r - r/2| over the three unit translations (node-major layout)."""
    worst = 0.0
    for c in range(3):
        r = np.zeros(k_mat.shape[1])
        r[c::3] = 1.0
        worst = max(worst, float(np.abs(k_mat @ r - 0.5 * r).max()))
    return worst


def _run(checks, name, fn):
    """Run one check; a check that raises fails with the exception text."""
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
    checks.append((name, bool(ok), detail))


def check_assemble(outdir, nodes, lam, mu):
    checks, acc = [], {}
    dim = 3 * nodes

    def np_matrix():
        k_mat = read_npmat(os.path.join(outdir, "np_matrix.npmat"))
        acc["rigid_residual"] = rigid_residual(k_mat)
        return k_mat.shape == (dim, dim) and np.isfinite(k_mat).all(), "shape %s" % (k_mat.shape,)

    def single_layer():
        with open(os.path.join(outdir, "single_layer.npmat")) as f:
            header = f.readline().split()
        return header == ["NPMAT", "v1", str(dim), str(dim), "real"], " ".join(header)

    _run(checks, "np_matrix_shape", np_matrix)
    _run(checks, "single_layer_header", single_layer)
    return checks, acc


def check_spectrum(outdir, nodes, lam, mu):
    checks, acc = [], {}
    path = os.path.join(outdir, "eigenvalues.csv")
    try:
        vals = read_column(path, "index,value", 1)
    except (OSError, ValueError, IndexError) as exc:
        return [("eigenvalues_readable", False, str(exc))], acc
    if not vals:
        return [("eigenvalues_present", False, "no eigenvalues")], acc
    top = max(vals)
    acc["top_eig_err"] = abs(top - 0.5)
    checks.append(("eigenvalue_count_3N", len(vals) == 3 * nodes,
                   "%d values, N=%d" % (len(vals), nodes)))
    lo, hi = -0.5 - EIG_MARGIN, 0.5 + EIG_MARGIN
    checks.append(("eigenvalues_in_range", all(lo <= v <= hi for v in vals),
                   "min %.6g max %.6g" % (min(vals), top)))
    checks.append(("top_eigenvalue_half", abs(top - 0.5) <= TOP_EIG_REL * 0.5,
                   "top %.6g" % top))
    return checks, acc


def check_count(outdir, nodes, lam, mu):
    def roots():
        found = read_column(os.path.join(outdir, "counting.csv"), "tau,n_plus,n_minus,root", 3)
        distinct = sorted(set(found))
        return _roots_match(distinct, essential_roots(lam, mu)), "roots %s" % distinct

    checks = []
    _run(checks, "counting_roots_essential", roots)
    return checks, {}


def check_fit(outdir, nodes, lam, mu):
    def reports():
        with open(os.path.join(outdir, "fit.json")) as f:
            reps = json.load(f)["reports"]
        finite = all(math.isfinite(r["C"]) and math.isfinite(r["d"]) for r in reps)
        return bool(reps) and finite, "%d reports" % len(reps)

    checks = []
    _run(checks, "fit_reports_finite", reports)
    return checks, {}


def check_coeff(outdir, nodes, lam, mu):
    checks, acc = [], {}
    try:
        with open(os.path.join(outdir, "coeff.json")) as f:
            reps = json.load(f)["reports"]
        table = {(r["root"], r["side"]): r["C"] for r in reps}
        drift = max(r["err_estimate"] for r in reps)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [("coeff_readable", False, "%s: %s" % (type(exc).__name__, exc))], acc
    acc["angle_drift"] = drift
    roots = sorted({root for root, _ in table})
    checks.append(("six_reports", len(reps) == 6 and len(table) == 6, "%d reports" % len(reps)))
    if len(roots) != 3:
        checks.append(("three_roots", False, "roots %s" % roots))
        return checks, acc
    checks.append(("coeff_roots_essential", _roots_match(roots, essential_roots(lam, mu)),
                   "roots %s" % roots))
    plus = [table.get((r, "plus"), math.nan) for r in roots]
    checks.append(("c_plus_positive", all(c > 0 for c in plus), "C+ %s" % plus))
    sym = []
    for side in ("plus", "minus"):
        lo, hi = table.get((roots[0], side)), table.get((roots[-1], side))
        sym.append(lo is not None and hi is not None and _close(lo, hi, SIDE_SYM_REL, 0.0))
    checks.append(("c_symmetric_in_k", all(sym),
                   "C(-k) = C(+k) to %g relative, per side" % SIDE_SYM_REL))
    return checks, acc


# The checks of each CLI stage's outputs.
STAGE_CHECKS = {
    "assemble": check_assemble,
    "spectrum": check_spectrum,
    "count": check_count,
    "fit": check_fit,
    "coeff": check_coeff,
}
