"""File formats: matrix container, eigenvalue/counting CSV, reports.

NPMAT v1 container: a single header line

    NPMAT v1 <rows> <cols> real

followed by one line per matrix row holding that row's entries as
whitespace-separated decimal literals.  The entry kind is always real;
a complex matrix, or a header of another kind, is an error.  Writers use
fixed repr-precision formatting so a rerun with identical inputs
produces identical bytes.
"""

import json

import numpy as np

_FMT = "%.17g"


def write_npmat(path, mat):
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError("NPMAT stores matrices only")
    if np.iscomplexobj(mat):
        raise ValueError("NPMAT stores real entries only, not complex")
    line = " ".join([_FMT] * mat.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write("NPMAT v1 %d %d real\n" % mat.shape)
        for row in mat:
            f.write(line % tuple(row))


def read_npmat(path):
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 5 or header[0] != "NPMAT" or header[1] != "v1":
            raise ValueError("not an NPMAT v1 file")
        rows, cols, kind = int(header[2]), int(header[3]), header[4]
        if kind != "real":
            raise ValueError("NPMAT entry kind %r is not 'real'" % kind)
        vals = np.loadtxt(f, dtype=float, ndmin=2)
    if vals.shape != (rows, cols):
        raise ValueError("NPMAT token count mismatch")
    return vals


def write_eigenvalues_csv(path, values):
    """CSV with header index,value; indices are 1-based."""
    with open(path, "w") as f:
        f.write("index,value\n")
        for i, v in enumerate(np.asarray(values).ravel(), start=1):
            f.write("%d,%s\n" % (i, _FMT % v))


def read_eigenvalues_csv(path):
    with open(path) as f:
        header = f.readline().strip()
        if header != "index,value":
            raise ValueError("not an eigenvalue CSV")
        return np.array([float(line.split(",")[1]) for line in f if line.strip()])


def write_counting_csv(path, records):
    """CSV with header tau,n_plus,n_minus,root from counting records."""
    with open(path, "w") as f:
        f.write("tau,n_plus,n_minus,root\n")
        for rec in records:
            root = rec["root"]
            for t, npl, nmi in zip(rec["tau"], rec["n_plus"], rec["n_minus"]):
                f.write(
                    "%s,%d,%d,%s\n" % (_FMT % t, int(npl), int(nmi), _FMT % root)
                )


def read_counting_csv(path):
    """Counting records grouped by root, in file order."""
    with open(path) as f:
        header = f.readline().strip()
        if header != "tau,n_plus,n_minus,root":
            raise ValueError("not a counting CSV")
        rows = [line.strip().split(",") for line in f if line.strip()]
    records = []
    current = None
    for t, npl, nmi, root in rows:
        root = float(root)
        if current is None or current["root"] != root:
            current = {"root": root, "tau": [], "n_plus": [], "n_minus": []}
            records.append(current)
        current["tau"].append(float(t))
        current["n_plus"].append(int(npl))
        current["n_minus"].append(int(nmi))
    for rec in records:
        rec["tau"] = np.array(rec["tau"])
        rec["n_plus"] = np.array(rec["n_plus"])
        rec["n_minus"] = np.array(rec["n_minus"])
    return records


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_report_json(path, reports):
    """Asymptotics reports as a deterministic JSON document."""
    _write_json(path, {"reports": [r.to_dict() for r in reports]})


def write_fit_json(path, reports, skipped):
    """Counting-route fit reports plus the sides that could not be
    fitted, each skipped entry a dict {root, side, reason}."""
    _write_json(
        path, {"reports": [r.to_dict() for r in reports], "skipped": list(skipped)}
    )

