"""File formats: matrix container, eigenvalue/counting CSV, JSON reports.

NPMAT v1 container: a single header line

    NPMAT v1 <rows> <cols> real

followed by one line per matrix row holding that row's entries as
whitespace-separated decimal literals.  The entry kind is always real;
a complex matrix, a header of another kind, or an entry that is not
finite, is an error, as is a CSV row with the wrong number of fields or
a value that is not finite.  Writers format every float as ``%.17g``,
17 significant digits, which round-trips each double exactly, so a
rerun with identical inputs produces identical bytes.

The CLI's ``assemble`` writes its two operator files, K and S, in
parallel, S in a forked child, when the process may run on a spare core
(``_fork_pair``).  The child reports only its exit status; when it did
not finish, the caller writes S again itself, so the bytes, and any
error, are those of the one-core path.
"""

import itertools
import json
import math
import os

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
            f.write(line % tuple(row.tolist()))


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
    """Run first() and second(), second in a child process when the
    process may run on a spare core; return nothing.

    second must write a whole file and be safe to run twice.  The child,
    made by os.fork, runs it and leaves by os._exit(0), or os._exit(1)
    when it raises: it never returns into the caller's stack, runs no
    atexit hook and flushes no inherited buffer.  The caller runs first
    and reaps the child, also when first raises.  When the child's wait
    status is not 0 (it raised, exited early or was killed) the caller
    runs second itself, which completes the write or raises what the
    one-core path raises.  With one core in os.sched_getaffinity both
    run in the calling process and nothing is forked.

    os.fork copies only the calling thread.  On Python 3.12 and later it
    warns when the process has other threads (a threaded BLAS, say).
    """
    if len(os.sched_getaffinity(0)) < 2:
        first()
        second()
        return
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            second()
            code = 0
        finally:
            os._exit(code)
    try:
        first()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        second()


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
    """Eigenvalues in file order; the indices must run 1, 2, ..., N."""
    expected = itertools.count(1)

    def index(text):
        want = next(expected)
        if int(text) != want:
            raise ValueError("index %s, not %d" % (text, want))
        return want

    rows = _csv_rows(path, "index,value", "an eigenvalue", (index, float))
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


def _tau(text):
    value = float(text)
    if not value > 0.0:
        raise ValueError("tau %s is not positive" % text)
    return value


def _count(text):
    value = int(text)
    if value < 0:
        raise ValueError("count %s is negative" % text)
    return value


def read_counting_csv(path):
    """Counting records, one per root in file order; each root's rows
    must be consecutive, tau positive and the counts nonnegative."""
    types = (_tau, _count, _count, float)
    rows = _csv_rows(path, "tau,n_plus,n_minus,root", "a counting", types)
    records = [
        dict(zip(("tau", "n_plus", "n_minus"), map(np.array, zip(*group))), root=root)
        for root, group in itertools.groupby(rows, key=lambda row: row[3])
    ]
    roots = [rec["root"] for rec in records]
    for i, root in enumerate(roots):
        if root in roots[:i]:
            raise ValueError("the rows of root %s are not consecutive" % root)
    return records


def write_json(path, payload):
    """payload as a deterministic JSON document: sorted keys, indent 2,
    a trailing newline."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
