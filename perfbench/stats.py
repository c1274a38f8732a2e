"""The benchmark's arithmetic: self times from spans, sample summaries,
failure rates and the per-layer metrics.

Everything here is a pure function of its arguments, so it is tested on
synthetic spans (see test_stats.py).  A span is a tuple
(name, start, end, parent) where parent is the index of the enclosing
span in the same list, or -1.
"""

import math
import statistics
from collections import defaultdict

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(i, ())
            if min(e, end) > max(s, start)
        ]
        out.append((end - start) - union_length(clipped))
    return out


def by_name(spans):
    """{name: {"calls", "self_s"}} over a span list."""
    agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        agg[name]["calls"] += 1
        agg[name]["self_s"] += own
    return dict(agg)


def span_tree(spans):
    """Calls and self time per (parent name, name) edge, largest self time
    first; stage spans have the parent "run"."""
    edges = defaultdict(lambda: [0, 0.0])
    for (name, _, _, parent), own in zip(spans, self_times(spans)):
        edge = edges[(spans[parent][0] if parent >= 0 else "run", name)]
        edge[0] += 1
        edge[1] += own
    return [{"parent": p, "name": n, "calls": c, "self_s": t}
            for (p, n), (c, t) in sorted(edges.items(), key=lambda e: -e[1][1])]


def percentile(values, p):
    """Linear-interpolation percentile of a non-empty sample."""
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail(values):
    """The highest of TAIL_PERCENTILES with at least TAIL_MIN_BEYOND
    samples above it, as {"p", "value", "beyond"}, or None."""
    for p in TAIL_PERCENTILES:
        value = percentile(values, p)
        beyond = sum(1 for v in values if v > value)
        if beyond >= TAIL_MIN_BEYOND:
            return {"p": p, "value": value, "beyond": beyond}
    return None


def summarize(values):
    """Median and tail percentile of a sample, with its size."""
    if not values:
        raise ValueError("no samples")
    return {"n": len(values), "median": statistics.median(values), "tail": tail(values)}


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def unit_of(name):
    """Unit of a metric, from its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_calls", "count"), ("_err", "1")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def fail_rate(attempted, failed):
    """Failed over attempted operations, with the base kept alongside."""
    if attempted < 1:
        raise ValueError("fail rate needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return {"value": failed / attempted, "failed": failed, "attempted": attempted}


def matrices_per_assemble(digests):
    """Distinct matrices produced over assemble calls (0 with no calls)."""
    return len(set(digests)) / len(digests) if digests else 0.0


def trace_useful_ratio(nodes, angles, roots, trace_calls):
    """Distinct (node, angle, root) matrices over signed trace calls."""
    return nodes * angles * roots / trace_calls if trace_calls else 0.0


SURFACE_CHARTS = ("c_chart", "consistent_chart", "principal_curvatures")
ASSEMBLERS = ("assemble_np_matrix", "assemble_single_layer_matrix")
COUNT_FIT = ("cluster_windows", "cluster_and_count", "fit_power_law", "prune_counting_samples")
EXTRACTION_OWN = ("chart_kernel", "homogeneous_parts")


def layer_metrics(spans, extra, import_s, nodes, angles):
    """Per-layer metrics of one traced pipeline.

    spans holds the stage spans ("stage.<cli stage>", parent -1) and the
    program spans recorded inside them; extra maps a span index to the
    value noted with it (file MB for io, a digest for assemble calls);
    import_s lists each stage's import time of ``npspec.cli``.
    """
    agg = by_name(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def self_of(names):
        return sum(get(n, "self_s") for n in names)

    def layer(prefix):
        return [n for n in agg if n.startswith(prefix + ".")]

    def noted(prefix):
        return [extra[i] for i, s in enumerate(spans) if s[0].startswith(prefix) and i in extra]

    io_write = [n for n in layer("io") if n.startswith("io.write")]
    io_read = [n for n in layer("io") if n.startswith("io.read")]
    extraction_other = [n for n in layer("extraction") if n.split(".", 1)[1] not in EXTRACTION_OWN]
    digests = [extra[i] for i, s in enumerate(spans)
               if s[0] in ("spectral." + a for a in ASSEMBLERS) and i in extra]
    overhead = self_of(layer("stage") + layer("cli"))
    return {
        "surfaces.height_calls": get("surfaces.CCoordinateChart.height", "calls"),
        "surfaces.height_s": get("surfaces.CCoordinateChart.height", "self_s"),
        "surfaces.chart_s": self_of("surfaces." + n for n in SURFACE_CHARTS),
        "surfaces.quadrature_s": get("surfaces.surface_quadrature", "self_s"),
        "spectral.assemble_calls": sum(get("spectral." + a, "calls") for a in ASSEMBLERS),
        "spectral.assemble_s": self_of("spectral." + a for a in ASSEMBLERS),
        "spectral.matrices_per_assemble": matrices_per_assemble(digests),
        "spectral.symmetrize_s": get("spectral.symmetrize", "self_s"),
        "spectral.count_fit_s": self_of("spectral." + n for n in COUNT_FIT),
        "linalg.eigensolve_s": get("linalg.eigvalsh", "self_s"),
        "io.write_s": self_of(io_write),
        "io.write_mb": sum(noted("io.write")),
        "io.read_s": self_of(io_read),
        "io.read_mb": sum(noted("io.read")),
        "extraction.field_s": self_of(extraction_other),
        "extraction.chart_kernel_calls": get("extraction.chart_kernel", "calls"),
        "extraction.chart_kernel_s": get("extraction.chart_kernel", "self_s"),
        "extraction.ladder_fit_s": get("extraction.homogeneous_parts", "self_s"),
        "elasticity.np_kernel_calls": get("elasticity.np_kernel", "calls"),
        "elasticity.np_kernel_s": get("elasticity.np_kernel", "self_s"),
        "asymptotics.integral_s": get("asymptotics.coefficient_integral", "self_s"),
        "asymptotics.trace_calls": get("asymptotics.signed_power_trace", "calls"),
        "asymptotics.trace_s": get("asymptotics.signed_power_trace", "self_s"),
        "asymptotics.trace_useful_ratio": trace_useful_ratio(
            nodes, angles, get("asymptotics.coefficient_integral", "calls"),
            get("asymptotics.signed_power_trace", "calls")),
        "symbols.build_s": self_of(layer("symbols")),
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "cli.stage_overhead_s": overhead,
    }
