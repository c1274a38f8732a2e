"""Run one ``npspec`` CLI stage with every public function of the package traced.

Usage: python3 perfbench/stage.py TRACE_OUT [npspec arguments ...]

The stage behaves exactly like the ``npspec`` console script (its exit code
is that of ``npspec.cli.main``), but before ``main`` runs, the public
functions of each ``npspec`` module are replaced, in every module that
holds a reference to them, by wrappers that record one span per call:
(name, start, end, parent).  ``CCoordinateChart.height`` and
``numpy.linalg.eigvalsh`` as called from ``npspec.cli`` are traced too.
Spans stay in memory and are written to TRACE_OUT as JSON when the stage
ends.  Times come from ``time.perf_counter``, the system-wide monotonic
clock, so they line up with the spans the benchmark records around the
stage process.
"""

import functools
import hashlib
import importlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAYERS = (
    "surfaces", "spectral", "io", "extraction", "elasticity",
    "asymptotics", "symbols", "cli",
)


class Tracer:
    """Span recorder.  A span's parent is the innermost span open when it
    starts, or -1 for a span opened outside every other span."""

    def __init__(self):
        self.names = []
        self.name_index = {}
        self.spans = []
        self.extra = {}
        self.stack = [-1]

    def wrap(self, name, fn, note=None):
        """Return fn wrapped to record a span; note(args, result) may add
        a JSON value stored with the span."""
        idx = self.name_index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        spans, stack, extra, clock = self.spans, self.stack, self.extra, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, start, end, parent)
            if note is not None:
                extra[sid] = note(args, result)
            return result

        return traced

    def dump(self, path, **fields):
        """Write the spans; a second line holds the (start, end) of the
        dump itself, so that the tracer's own cost can be set apart."""
        start = time.perf_counter()
        body = json.dumps(dict(fields, names=self.names, spans=self.spans,
                               extra={str(k): v for k, v in self.extra.items()}),
                          separators=(",", ":"))
        with open(path, "w") as f:
            f.write(body + "\n")
            f.write(json.dumps({"dump": [start, time.perf_counter()]}) + "\n")


def _file_mb(args, result):
    """Size of the file named by the first argument of an io call."""
    return os.path.getsize(args[0]) / 1e6


def _matrix_digest(args, result):
    return hashlib.blake2b(result.tobytes(), digest_size=16).hexdigest()


NOTES = {
    "io": _file_mb,
    "spectral.assemble_np_matrix": _matrix_digest,
    "spectral.assemble_single_layer_matrix": _matrix_digest,
}


def install(tracer):
    """Wrap the public functions of every layer module in place."""
    import numpy
    import npspec

    modules = {m: importlib.import_module("npspec." + m) for m in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                continue
            if getattr(fn, "__module__", None) != mod.__name__:
                continue
            name = "%s.%s" % (layer, attr)
            note = NOTES.get(name) or NOTES.get(layer)
            wrapped[id(fn)] = (fn, tracer.wrap(name, fn, note))
    # Rebind every module-level reference (``from .x import y`` copies).
    for mod in list(modules.values()) + [npspec]:
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    chart = modules["surfaces"].CCoordinateChart
    chart.height = tracer.wrap("surfaces.CCoordinateChart.height", chart.height)

    eigvalsh = numpy.linalg.eigvalsh
    traced_eigvalsh = tracer.wrap("linalg.eigvalsh", eigvalsh)

    @functools.wraps(eigvalsh)
    def eigvalsh_from_cli(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "npspec.cli":
            return traced_eigvalsh(*args, **kwargs)
        return eigvalsh(*args, **kwargs)

    numpy.linalg.eigvalsh = eigvalsh_from_cli


def main(argv):
    trace_out, npspec_args = argv[0], argv[1:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import npspec.cli  # noqa: F401  (import cost is measured, not traced)
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    t1 = time.perf_counter()
    install(tracer)
    installed = [t1, time.perf_counter()]
    code = 1
    try:
        code = npspec.cli.main(npspec_args)
    finally:
        tracer.dump(trace_out, import_s=import_s, install=installed, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
