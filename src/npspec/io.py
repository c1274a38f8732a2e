"""File formats: matrix container, eigenvalue/counting CSV, reports.

NPMAT v1 container: a single header line

    NPMAT v1 <rows> <cols> real

followed by one line per matrix row holding that row's entries as
whitespace-separated decimal literals.  The entry kind is always real;
a complex matrix, a header of another kind, or an entry that is not
finite, is an error, as is a CSV row with the wrong number of fields or
a value that is not finite.  Writers use fixed repr-precision formatting
so a rerun with identical inputs produces identical bytes.

The CLI writes and reads its two operator files, K and S, in parallel,
one of them in a forked child, when the process may run on a spare
core (``_fork_pair``); the bytes are identical either way.
"""

import itertools
import json
import math
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


def _fork_pair(first, second):
    """(first(), second()), with second in a child process when the
    process may run on a spare core.

    The child, made by os.fork, sends back second's result, or the
    exception it raised, pickled through a pipe and then leaves by
    os._exit: it never returns into the caller's stack, runs no atexit
    hook and flushes no inherited buffer.  With one core in
    os.sched_getaffinity both run in the calling process and nothing is
    forked.

    The caller runs first, reads the pipe to its end and reaps the
    child, also when first raises; the child's exception is re-raised
    with its type and message, and a child that ends without a result
    (killed, out of memory) raises ChildProcessError naming its exit
    status.  first and second are not pickled, so they may be closures.

    os.fork copies only the calling thread.  On Python 3.12 and later it
    warns when the process has other threads (a threaded BLAS, say).
    """
    if len(os.sched_getaffinity(0)) < 2:
        return first(), second()
    pid, reader = _fork_call(second)
    try:
        mine = first()
        try:
            payload = pickle.load(reader)
        except (EOFError, pickle.UnpicklingError):
            payload = None  # the child sent no whole result
        reader.read()
    finally:
        reader.close()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if payload is None:
        raise ChildProcessError("the forked child ended with %s and sent no result" % (
            "signal %d" % -code if code < 0 else "exit status %d" % code))
    if not payload[0]:
        raise payload[1]
    return mine, payload[1]


def _fork_call(fn):
    """(pid, reader) of a child that sends pickled (True, fn()) or
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
                payload = (True, fn())
            except BaseException as exc:  # re-raised by the caller
                payload = (False, exc)
            with open(w, "wb") as f:
                pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def write_eigenvalues_csv(path, values):
    """CSV with header index,value; indices are 1-based."""
    with open(path, "w") as f:
        f.write("index,value\n")
        for i, v in enumerate(np.asarray(values).ravel(), start=1):
            f.write("%d,%s\n" % (i, _FMT % v))


def _csv_rows(path, header, kind, types):
    """Rows of the CSV at path, each field converted by its entry of
    types, after a first line that must be header; blank lines are
    skipped.  A ValueError names the line of a row with the wrong
    number of fields, a field its type rejects or a value not finite."""
    rows = []
    with open(path) as f:
        if f.readline().strip() != header:
            raise ValueError("not %s CSV" % kind)
        for number, line in enumerate(f, start=2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            try:
                if len(fields) != len(types):
                    raise ValueError("%d fields, not %d" % (len(fields), len(types)))
                row = [convert(v) for convert, v in zip(types, fields)]
                if not all(math.isfinite(v) for v in row if isinstance(v, float)):
                    raise ValueError("a value is not finite")
            except ValueError as exc:
                raise ValueError("line %d %r: %s" % (number, line.strip(), exc)) from None
            rows.append(row)
    return rows


def read_eigenvalues_csv(path):
    rows = _csv_rows(path, "index,value", "an eigenvalue", (int, float))
    return np.array([value for _, value in rows])


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
    """Counting records grouped by consecutive equal roots, in file order."""
    rows = _csv_rows(path, "tau,n_plus,n_minus,root", "a counting", (float, int, int, float))
    return [
        dict(zip(("tau", "n_plus", "n_minus"), map(np.array, zip(*group))), root=root)
        for root, group in itertools.groupby(rows, key=lambda row: row[3])
    ]


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

