"""File formats: matrix container, eigenvalue/counting CSV, reports.

NPMAT v1 container: a single header line

    NPMAT v1 <rows> <cols> real

followed by one line per matrix row holding that row's entries as
whitespace-separated decimal literals.  The entry kind is always real;
a complex matrix, a header of another kind, or an entry that is not
finite, is an error.  Writers use fixed repr-precision formatting so a
rerun with identical inputs produces identical bytes.

The CLI writes and reads its two operator files, K and S, in parallel
when the process may run on a spare core (``_map_forked``); the bytes
are identical either way.
"""

import json
import os
import pickle

import numpy as np

_FMT = "%.17g"


def _require_finite(mat):
    """Raise if mat has an entry that is not finite, naming the first."""
    # min and max propagate NaN, so only a failing matrix pays for a mask
    if mat.size == 0 or np.isfinite([mat.min(), mat.max()]).all():
        return
    i, j = np.argwhere(~np.isfinite(mat))[0]
    raise ValueError(
        "NPMAT entry at row %d, column %d is %r; entries must be finite"
        % (i, j, float(mat[i, j]))
    )


def write_npmat(path, mat):
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError("NPMAT stores matrices only")
    if np.iscomplexobj(mat):
        raise ValueError("NPMAT stores real entries only, not complex")
    _require_finite(mat)
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
    _require_finite(vals)
    return vals


def _map_forked(fn, items):
    """[fn(x) for x in items], with later items on spare cores.

    The calling process runs items[0].  Each later item, one per spare
    core in os.sched_getaffinity, runs in a child made by os.fork, which
    sends back its result, or the exception it raised, pickled through
    a pipe and then leaves by os._exit: it never returns into the
    caller's stack, runs no atexit hook and flushes no inherited buffer.
    Items beyond the spare cores run in the calling process too.  With
    no spare core, or a single item, this is the plain comprehension
    and nothing is forked.

    The caller reads every pipe to its end and reaps every child, also
    when its own items raise; a child's exception is re-raised with its
    type and message, and a child that ends without a result (killed,
    out of memory) raises ChildProcessError naming its exit status.
    fn and the items are not pickled, so they may be closures.

    os.fork copies only the calling thread.  On Python 3.12 and later it
    warns when the process has other threads (a threaded BLAS, say).
    """
    items = list(items)
    forked = items[1:len(os.sched_getaffinity(0))]
    if not forked:
        return [fn(x) for x in items]
    children, statuses = [], []
    try:
        for item in forked:
            children.append(_fork_call(fn, item))
        own = [fn(x) for x in items[:1] + items[1 + len(forked):]]
        payloads = [_read_to_end(reader) for _, reader in children]
    finally:
        for pid, reader in children:
            reader.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for index, (payload, status) in enumerate(zip(payloads, statuses), start=1):
        if payload is None:
            raise ChildProcessError(
                "the child forked for item %d ended with %s and sent no result"
                % (index, _describe_exit(status))
            )
        if not payload[0]:
            raise payload[1]
    return own[:1] + [p[1] for p in payloads] + own[1:]


def _fork_call(fn, item):
    """(pid, reader) of a child that sends pickled (True, fn(item)) or
    (False, exception) down the pipe behind reader."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                payload = (True, fn(item))
            except BaseException as exc:  # re-raised by the caller
                payload = (False, exc)
            with open(w, "wb") as f:
                pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _read_to_end(reader):
    """The child's unpickled payload, or None if it sent none whole."""
    try:
        payload = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):
        payload = None
    reader.read()
    return payload


def _describe_exit(status):
    code = os.waitstatus_to_exitcode(status)
    return "signal %d" % -code if code < 0 else "exit status %d" % code


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

